package controlplane

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"owan/internal/core"
	"owan/internal/sim"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// simSlot is what the simulator's scheduler saw and returned in one slot.
type simSlot struct {
	ids       []int
	remaining []float64
	key       string
	alloc     map[int][]transfer.PathRate
}

// recordingScheduler wraps the simulator's Owan scheduler and records every
// slot it is asked to schedule. It forwards fiber failures, as the simulator
// only delivers them to a scheduler that is failure-aware.
type recordingScheduler struct {
	inner *sim.OwanScheduler
	slots map[int]simSlot
}

func (r *recordingScheduler) Name() string          { return r.inner.Name() }
func (r *recordingScheduler) OnFiberFailure(id int) { r.inner.OnFiberFailure(id) }

func (r *recordingScheduler) Schedule(slot int, topo *topology.LinkSet, active []*transfer.Transfer) (*topology.LinkSet, map[int][]transfer.PathRate) {
	var rec simSlot
	for _, t := range active {
		rec.ids = append(rec.ids, t.ID)
		rec.remaining = append(rec.remaining, t.Remaining)
	}
	next, alloc := r.inner.Schedule(slot, topo, active)
	rec.key = next.Key()
	rec.alloc = alloc // the allocator returns a fresh map and paths every slot
	r.slots[slot] = rec
	return next, alloc
}

// diffRequests draws n requests arriving uniformly over slots [from,
// from+span), with exponential sizes and a deadline one to four slots after
// arrival.
func diffRequests(rng *rand.Rand, sites, n, from, span int, meanGbits float64) []transfer.Request {
	reqs := make([]transfer.Request, n)
	for i := range reqs {
		src := rng.Intn(sites)
		arrival := from + rng.Intn(span)
		reqs[i] = transfer.Request{
			Src: src, Dst: (src + 1 + rng.Intn(sites-1)) % sites,
			SizeGbits: 1 + rng.ExpFloat64()*meanGbits,
			Arrival:   arrival, Deadline: arrival + 1 + rng.Intn(4),
		}
	}
	return reqs
}

// TestControllerMatchesSim replays one seeded request list through sim.Run
// and through the live controller, slot by slot, and requires the two
// runners of the slot pipeline to agree: in every slot the same demand
// snapshot (ids in order, remaining volume), the same topology, the same
// per-transfer paths and rates and the same consistent-update stats; an idle
// slot in both or in neither; and in the end the same completions, finish
// times and deadline credit. Arrivals are submitted before their slot's Tick
// and cuts are reported before theirs; ids map by submission order.
func TestControllerMatchesSim(t *testing.T) {
	const slotSeconds = 300
	cases := []struct {
		name  string
		net   *topology.Network
		reqs  func(rng *rand.Rand, sites int) []transfer.Request
		cuts  map[int][]int // slot -> indexes into net.Fibers
		slots int
		idle  bool // the request list leaves a gap of idle slots
	}{
		{
			name: "isp40-cut", net: topology.ISP(40, 10, 1),
			reqs: func(rng *rand.Rand, sites int) []transfer.Request {
				return diffRequests(rng, sites, 120, 0, 20, 40000)
			},
			cuts:  map[int][]int{10: {4}},
			slots: 30,
		},
		{
			name: "isp100-cuts-idle", net: topology.ISP(100, 10, 1),
			reqs: func(rng *rand.Rand, sites int) []transfer.Request {
				return append(diffRequests(rng, sites, 40, 0, 4, 8000), diffRequests(rng, sites, 40, 14, 4, 8000)...)
			},
			cuts:  map[int][]int{2: {7}, 15: {30, 31}},
			slots: 40,
			idle:  true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reqs := tc.reqs(rand.New(rand.NewSource(7)), tc.net.NumSites())
			slices.SortStableFunc(reqs, func(a, b transfer.Request) int { return a.Arrival - b.Arrival })
			for i := range reqs {
				reqs[i].ID = i
			}
			cuts := map[int][]int{}
			for slot, idx := range tc.cuts {
				for _, i := range idx {
					cuts[slot] = append(cuts[slot], tc.net.Fibers[i].ID)
				}
			}
			cfg := core.DefaultConfig(tc.net)
			cfg.Seed = 7
			cfg.MaxIterations = 100

			sched := &recordingScheduler{
				inner: &sim.OwanScheduler{O: core.New(cfg), SlotSeconds: slotSeconds},
				slots: map[int]simSlot{},
			}
			defer sched.inner.Close()
			res, err := sim.Run(sim.Config{
				Net: tc.net, Initial: topology.InitialTopology(tc.net),
				Scheduler: sched, Requests: reqs,
				SlotSeconds: slotSeconds, MaxSlots: tc.slots,
				FiberFailures: cuts, PlanUpdates: true,
			})
			if err != nil {
				t.Fatal(err)
			}

			ctrl, err := NewServer(context.Background(), nil, WithCoreConfig(cfg), WithSlotSeconds(slotSeconds))
			if err != nil {
				t.Fatal(err)
			}
			defer ctrl.Close()
			idOf := map[int]int{}                // simulator id -> controller id
			live := map[int]*transfer.Transfer{} // controller id -> its transfer, kept past eviction
			key := topology.InitialTopology(tc.net).Key()
			busy, next := 0, 0
			for slot := 0; slot < res.Slots; slot++ {
				for _, id := range cuts[slot] {
					if err := ctrl.FailFiber(id); err != nil {
						t.Fatal(err)
					}
				}
				for ; next < len(reqs) && reqs[next].Arrival == slot; next++ {
					r := reqs[next]
					id, err := ctrl.Submit(WireRequest{Src: r.Src, Dst: r.Dst, SizeGbits: r.SizeGbits, DeadlineSlots: r.Deadline - r.Arrival})
					if err != nil {
						t.Fatal(err)
					}
					idOf[r.ID] = id
				}
				before := map[int]float64{}
				ctrl.mu.Lock()
				for id, tr := range ctrl.transfers {
					live[id] = tr
					before[id] = tr.Remaining
				}
				ctrl.mu.Unlock()

				st, active := ctrl.tick()
				want, scheduled := sched.slots[slot]
				if scheduled != (st != nil) {
					t.Errorf("slot %d: simulator scheduled %v, controller searched %v", slot, scheduled, st != nil)
				}
				if scheduled && st != nil {
					busy++
					key = want.key
					var ids []int
					var rem []float64
					for _, tr := range active {
						ids = append(ids, tr.ID)
						rem = append(rem, before[tr.ID])
					}
					wantIDs := make([]int, len(want.ids))
					for i, id := range want.ids {
						wantIDs[i] = idOf[id]
					}
					if !slices.Equal(ids, wantIDs) || !slices.Equal(rem, want.remaining) {
						t.Errorf("slot %d: controller demand %v remaining %v, simulator %v remaining %v", slot, ids, rem, wantIDs, want.remaining)
					}
					if got := st.Topology.Key(); got != want.key {
						t.Errorf("slot %d: controller chose a different topology than the simulator", slot)
					}
					for id, prs := range want.alloc {
						if got := st.Alloc[idOf[id]]; !reflect.DeepEqual(got, prs) {
							t.Errorf("slot %d: transfer %d gets %v from the controller, %v from the simulator", slot, id, got, prs)
							break
						}
					}
					if len(st.Alloc) != len(want.alloc) {
						t.Errorf("slot %d: controller allocates %d transfers, simulator %d", slot, len(st.Alloc), len(want.alloc))
					}
				}
				if got := ctrl.topo.Key(); got != key {
					t.Errorf("slot %d: controller holds a different topology than the simulator", slot)
				}
				if got := ctrl.LastUpdatePlan(); got != res.Updates[slot] {
					t.Errorf("slot %d: controller update %+v, simulator %+v", slot, got, res.Updates[slot])
				}
				if t.Failed() {
					t.FailNow()
				}
			}
			t.Logf("%d slots (%d idle), cuts in %d, %d of %d transfers completed", res.Slots, res.Slots-busy, len(cuts), ctrl.Completed(), len(reqs))
			if tc.idle && busy == res.Slots {
				t.Fatal("no idle slot: the case does not exercise one")
			}
			if got, want := ctrl.Completed(), len(res.Completed()); got != want {
				t.Fatalf("controller completed %d transfers, simulator %d", got, want)
			}
			for _, want := range res.Transfers {
				got := live[idOf[want.ID]]
				if got.Done != want.Done || got.FinishTime != want.FinishTime || got.Remaining != want.Remaining ||
					got.DeliveredByDeadline != want.DeliveredByDeadline || got.LastServed != want.LastServed {
					t.Fatalf("transfer %d: controller ends %+v, simulator %+v", want.ID, *got, *want)
				}
			}
		})
	}
}
