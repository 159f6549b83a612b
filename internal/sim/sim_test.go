package sim

import (
	"errors"
	"math"
	"testing"

	"owan/internal/core"
	"owan/internal/metrics"
	"owan/internal/te"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/workload"
)

func squareRequests() []transfer.Request {
	return []transfer.Request{
		{ID: 0, Src: 0, Dst: 1, SizeGbits: 200, Arrival: 0, Deadline: transfer.NoDeadline},
		{ID: 1, Src: 2, Dst: 3, SizeGbits: 200, Arrival: 0, Deadline: transfer.NoDeadline},
	}
}

func TestRunMotivatingExample(t *testing.T) {
	// The §2.2 example on the square network, slot = 10 s: each transfer of
	// 200 Gbit needs two slots on its 10 Gbps direct path, but only one on
	// the doubled links of the Plan C topology.
	net := topology.Square()
	initial := topology.InitialTopology(net)

	// Plan A (routing only, single shortest path): both transfers direct at
	// 10 Gbps -> both finish at t=20 ("1 time unit").
	resA, err := Run(Config{
		Net: net, Initial: initial,
		Scheduler:   &TEScheduler{Approach: te.RateOnly{Policy: transfer.SJF}, Theta: 10, SlotSeconds: 10},
		Requests:    squareRequests(),
		SlotSeconds: 10, MaxSlots: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctA := metrics.CompletionTimes(resA.Transfers, 10)
	if len(ctA) != 2 {
		t.Fatalf("plan A completed %d transfers", len(ctA))
	}
	if avg := metrics.Mean(ctA); math.Abs(avg-20) > 1e-6 {
		t.Errorf("plan A avg completion = %v, want 20", avg)
	}

	// Plan B (multi-path rate control, MaxFlow): one transfer takes both
	// the direct and the detour path and finishes in one slot; the other
	// follows -> completions 10 and 20 ("0.75 time units" on average,
	// 1.33x faster than Plan A).
	resB, err := Run(Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler:   &TEScheduler{Approach: te.MaxFlow{}, Theta: 10, SlotSeconds: 10},
		Requests:    squareRequests(),
		SlotSeconds: 10, MaxSlots: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg := metrics.Mean(metrics.CompletionTimes(resB.Transfers, 10)); math.Abs(avg-15) > 1e-6 {
		t.Errorf("plan B avg completion = %v, want 15 (1.33x faster)", avg)
	}

	// Plan C (Owan): reconfigure so each pair gets 20 Gbps -> finish in 10 s.
	o := core.New(core.Config{Net: net, Policy: transfer.SJF, Seed: 1})
	resC, err := Run(Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler:   &OwanScheduler{O: o, SlotSeconds: 10},
		Requests:    squareRequests(),
		SlotSeconds: 10, MaxSlots: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctC := metrics.CompletionTimes(resC.Transfers, 10)
	if avg := metrics.Mean(ctC); math.Abs(avg-10) > 1e-6 {
		t.Errorf("plan C avg completion = %v, want 10 (2x faster)", avg)
	}
}

func TestRunDeterministic(t *testing.T) {
	net := topology.Internet2(8)
	reqs, err := workload.Generate(workload.Config{
		Sites: 9, MeanSizeGbits: 200 * workload.GB, TotalDemandGbits: 30 * workload.TB,
		Load: 1, DurationSlots: 6, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		o := core.New(core.Config{Net: net, Policy: transfer.SJF, Seed: 5})
		r, err := Run(Config{
			Net: net, Initial: topology.InitialTopology(net),
			Scheduler:   &OwanScheduler{O: o, SlotSeconds: 300},
			Requests:    reqs,
			SlotSeconds: 300, MaxSlots: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Slots != b.Slots || a.MakespanSeconds != b.MakespanSeconds {
		t.Errorf("nondeterministic: slots %d/%d makespan %v/%v", a.Slots, b.Slots, a.MakespanSeconds, b.MakespanSeconds)
	}
}

func TestRunCompletesAllTransfers(t *testing.T) {
	net := topology.Internet2(8)
	reqs, err := workload.Generate(workload.Config{
		Sites: 9, MeanSizeGbits: 200 * workload.GB, TotalDemandGbits: 20 * workload.TB,
		Load: 0.5, DurationSlots: 6, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []Scheduler{
		&TEScheduler{Approach: te.MaxFlow{}, Theta: 10, SlotSeconds: 300},
		&TEScheduler{Approach: te.SWAN{}, Theta: 10, SlotSeconds: 300},
	} {
		res, err := Run(Config{
			Net: net, Initial: topology.InitialTopology(net),
			Scheduler: sched, Requests: reqs,
			SlotSeconds: 300, MaxSlots: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(res.MakespanSeconds, 1) {
			t.Errorf("%s: not all transfers completed", sched.Name())
		}
		for _, tr := range res.Transfers {
			if tr.Done && tr.FinishTime < float64(tr.Arrival)*300 {
				t.Errorf("%s: transfer %d finished before arriving", sched.Name(), tr.ID)
			}
		}
	}
}

func TestOwanBeatsFixedTopologyOnSkewedLoad(t *testing.T) {
	// The headline claim (Fig 7): reconfiguring the topology shortens
	// completion times versus fixed-topology TE under skewed demand.
	net := topology.Internet2(8)
	reqs, err := workload.Generate(workload.Config{
		Sites: 9, MeanSizeGbits: 500 * workload.GB, TotalDemandGbits: 60 * workload.TB,
		Load: 1, DurationSlots: 8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := core.New(core.Config{Net: net, Policy: transfer.SJF, StarveSlots: 3, Seed: 2})
	owanRes, err := Run(Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler: &OwanScheduler{O: o, SlotSeconds: 300}, Requests: reqs,
		SlotSeconds: 300, MaxSlots: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	swanRes, err := Run(Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler: &TEScheduler{Approach: te.SWAN{}, Theta: 10, SlotSeconds: 300}, Requests: reqs,
		SlotSeconds: 300, MaxSlots: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	owanAvg := metrics.Mean(metrics.CompletionTimes(owanRes.Transfers, 300))
	swanAvg := metrics.Mean(metrics.CompletionTimes(swanRes.Transfers, 300))
	if owanAvg <= 0 || swanAvg <= 0 {
		t.Fatalf("degenerate run: owan %v swan %v", owanAvg, swanAvg)
	}
	if factor := swanAvg / owanAvg; factor < 1.0 {
		t.Errorf("owan %v vs swan %v (factor %v): topology reconfiguration should help", owanAvg, swanAvg, factor)
	}
}

func TestReconfigPenaltyApplied(t *testing.T) {
	// With a reconfiguration penalty and a scheduler that flips the
	// topology, transfers crossing changed links lose transmit time.
	net := topology.Square()
	reqs := []transfer.Request{{ID: 0, Src: 0, Dst: 1, SizeGbits: 100, Deadline: transfer.NoDeadline}}
	flip := &flipScheduler{}
	res, err := Run(Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler: flip, Requests: reqs,
		SlotSeconds: 10, MaxSlots: 100, ReconfigSeconds: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0: the flip changes (0,1) from 1 to 2 circuits; transfer crosses
	// it, so it transmits only 5 s at 20 Gbps = 100 Gbit... exactly done at
	// the end of slot 0 but with 5 s docked it finishes at 10 s, not 5 s.
	tr := res.Transfers[0]
	if !tr.Done {
		t.Fatal("transfer incomplete")
	}
	if tr.FinishTime < 9 {
		t.Errorf("finish = %v: penalty not applied", tr.FinishTime)
	}
}

// flipScheduler doubles the (0,1) link once, then keeps the topology.
type flipScheduler struct{ flipped bool }

func (f *flipScheduler) Name() string { return "flip" }

func (f *flipScheduler) Schedule(slot int, topo *topology.LinkSet, active []*transfer.Transfer) (*topology.LinkSet, map[int][]transfer.PathRate) {
	out := topo
	if !f.flipped {
		out = topo.Clone()
		out.Add(0, 2, -out.Get(0, 2))
		out.Add(1, 3, -out.Get(1, 3))
		out.Add(0, 1, 1)
		out.Add(2, 3, 1)
		f.flipped = true
	}
	allocs := map[int][]transfer.PathRate{}
	for _, t := range active {
		if out.Get(t.Src, t.Dst) > 0 {
			allocs[t.ID] = []transfer.PathRate{{Path: []int{t.Src, t.Dst}, Rate: float64(out.Get(t.Src, t.Dst)) * 10}}
		}
	}
	return out, allocs
}

func TestDeliveredByDeadlineTracked(t *testing.T) {
	net := topology.Square()
	reqs := []transfer.Request{{ID: 0, Src: 0, Dst: 1, SizeGbits: 150, Deadline: 0}}
	res, err := Run(Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler:   &TEScheduler{Approach: te.MaxFlow{}, Theta: 10, SlotSeconds: 10},
		Requests:    reqs,
		SlotSeconds: 10, MaxSlots: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Transfers[0]
	// Slot 0 delivers at most 20 Gbps×10 s = 200; demand-capped at 15 Gbps
	// = 150 Gbit? No: demand rate is 150/10 = 15 Gbps but only 10 direct +
	// 10 detour available; MaxFlow gives 15. So 150 delivered in slot 0.
	if tr.DeliveredByDeadline < 100 {
		t.Errorf("delivered by deadline = %v, want >= 100", tr.DeliveredByDeadline)
	}
	st := metrics.Deadlines(res.Transfers, 10)
	if st.TransfersMetPct != 100 {
		t.Errorf("met = %v, want 100", st.TransfersMetPct)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	net := topology.Square()
	valid := func() Config {
		return Config{
			Net: net, Initial: topology.InitialTopology(net),
			Scheduler:   &TEScheduler{Approach: te.MaxFlow{}, Theta: 10, SlotSeconds: 10},
			Requests:    squareRequests(),
			SlotSeconds: 10, MaxSlots: 20,
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"nil Net", func(c *Config) { c.Net = nil }, ErrMissingConfig},
		{"nil Initial", func(c *Config) { c.Initial = nil }, ErrMissingConfig},
		{"nil Scheduler", func(c *Config) { c.Scheduler = nil }, ErrMissingConfig},
		{"zero SlotSeconds", func(c *Config) { c.SlotSeconds = 0 }, ErrBadSlots},
		{"zero MaxSlots", func(c *Config) { c.MaxSlots = 0 }, ErrBadSlots},
	} {
		cfg := valid()
		tc.mutate(&cfg)
		if _, err := Run(cfg); !errors.Is(err, tc.want) {
			t.Errorf("%s: Run returned %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := Run(valid()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
