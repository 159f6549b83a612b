package emu

import (
	"errors"
	"math"
	"testing"

	"owan/internal/metrics"
	"owan/internal/sim"
	"owan/internal/te"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/workload"
)

func baseSim(sched sim.Scheduler, reqs []transfer.Request) sim.Config {
	net := topology.Internet2(8)
	return sim.Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler: sched, Requests: reqs,
		SlotSeconds: 300, MaxSlots: 300,
	}
}

// runEmu runs cfg on a fresh testbed.
func runEmu(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	tb, err := New(cfg.Net.ThetaGbps)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DataPlane = tb
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEmuSingleTransfer(t *testing.T) {
	reqs := []transfer.Request{{ID: 0, Src: 7, Dst: 8, SizeGbits: 3000, Deadline: transfer.NoDeadline}}
	res := runEmu(t, baseSim(&sim.TEScheduler{Approach: te.MaxFlow{}, Theta: 10, SlotSeconds: 300}, reqs))
	tr := res.Transfers[0]
	if !tr.Done {
		t.Fatal("transfer incomplete")
	}
	// 3000 Gbit at up to 8 ports * 10 Gbps demand-capped 10 Gbps (3000/300)
	// should finish within the first slot or two.
	if tr.FinishTime > 600 {
		t.Errorf("finish = %v, want <= 600", tr.FinishTime)
	}
}

// TestValidationEmuVsSim reproduces the paper's §5.1 validation: the
// flow-based simulator and the (emulated) testbed agree within 10% on the
// performance metrics.
func TestValidationEmuVsSim(t *testing.T) {
	reqs, err := workload.Generate(workload.Config{
		Sites: 9, MeanSizeGbits: 100 * workload.GB, TotalDemandGbits: 10 * workload.TB,
		Load: 1, DurationSlots: 4, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	mkSched := func() sim.Scheduler {
		return &sim.TEScheduler{Approach: te.MaxFlow{}, Theta: 10, SlotSeconds: 300}
	}
	simRes, err := sim.Run(baseSim(mkSched(), reqs))
	if err != nil {
		t.Fatal(err)
	}
	emuRes := runEmu(t, baseSim(mkSched(), reqs))
	sAvg := metrics.Mean(metrics.CompletionTimes(simRes.Transfers, 300))
	eAvg := metrics.Mean(metrics.CompletionTimes(emuRes.Transfers, 300))
	if sAvg == 0 || eAvg == 0 {
		t.Fatalf("degenerate run: sim %v emu %v", sAvg, eAvg)
	}
	if diff := math.Abs(sAvg-eAvg) / sAvg; diff > 0.10 {
		t.Errorf("sim %v vs emu %v: divergence %.1f%% exceeds the 10%% validation bound", sAvg, eAvg, 100*diff)
	}
}

func TestEmuRespectsLinkBudgets(t *testing.T) {
	// Two transfers squeezed through one link: per-slot goodput can never
	// exceed the link capacity.
	net := topology.Square()
	reqs := []transfer.Request{
		{ID: 0, Src: 0, Dst: 1, SizeGbits: 500, Deadline: transfer.NoDeadline},
		{ID: 1, Src: 0, Dst: 1, SizeGbits: 500, Deadline: transfer.NoDeadline},
	}
	res := runEmu(t, sim.Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler: &sim.TEScheduler{Approach: te.MaxFlow{}, Theta: 10, SlotSeconds: 10},
		Requests:  reqs, SlotSeconds: 10, MaxSlots: 200,
	})
	for i, thr := range res.SlotThroughput {
		// Square max cut for 0->1 traffic: 20 Gbps.
		if thr > 20+1e-6 {
			t.Errorf("slot %d throughput %v exceeds capacity", i, thr)
		}
	}
}

func TestEmuChunkQuantization(t *testing.T) {
	// A rate below one chunk per step still makes progress via credits: a
	// 1 s slot has 0.01 s steps, and 5 Gbit demand-capped to 5 Gbps sends
	// 0.05 Gbit per step, a tenth of a chunk.
	net := topology.Square()
	reqs := []transfer.Request{{ID: 0, Src: 0, Dst: 1, SizeGbits: 5, Deadline: transfer.NoDeadline}}
	res := runEmu(t, sim.Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler: &sim.TEScheduler{Approach: te.MaxFlow{}, Theta: 10, SlotSeconds: 1},
		Requests:  reqs, SlotSeconds: 1, MaxSlots: 50,
	})
	if !res.Transfers[0].Done {
		t.Error("small transfer never completed under quantization")
	}
}

// TestEmuRejectsBadConfig: a run with the testbed as its data plane is
// still refused when the network, topology, scheduler or slot settings are
// missing, before any chunk is sent.
func TestEmuRejectsBadConfig(t *testing.T) {
	tb, err := New(topology.Square().ThetaGbps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(sim.Config{DataPlane: tb}); !errors.Is(err, sim.ErrMissingConfig) {
		t.Errorf("empty config: Run returned %v, want %v", err, sim.ErrMissingConfig)
	}
	net := topology.Square()
	cfg := sim.Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler: &sim.TEScheduler{Approach: te.MaxFlow{}, Theta: 10, SlotSeconds: 10},
		DataPlane: tb,
	}
	if _, err := sim.Run(cfg); !errors.Is(err, sim.ErrBadSlots) {
		t.Errorf("zero slots: Run returned %v, want %v", err, sim.ErrBadSlots)
	}
	if len(tb.credits) != 0 {
		t.Errorf("rejected runs left chunk credits %v on the testbed", tb.credits)
	}
}

// TestEmuDarkSecondsExact: a transfer dark for 4 s of a 300 s slot earns
// credit for exactly 296 s, as the fluid model sends, rather than for the
// whole 3 s steps after the dark time.
func TestEmuDarkSecondsExact(t *testing.T) {
	net := topology.Square()
	tb, err := New(net.ThetaGbps)
	if err != nil {
		t.Fatal(err)
	}
	req := transfer.Request{ID: 0, Src: 0, Dst: 1, SizeGbits: 1000, Deadline: transfer.NoDeadline}
	alloc := map[int][]transfer.PathRate{0: {{Path: []int{0, 1}, Rate: 1}}}
	emuT, fluidT := transfer.NewTransfer(req), transfer.NewTransfer(req)
	got := tb.Serve(0, 300, topology.InitialTopology(net), []*transfer.Transfer{emuT}, alloc, []float64{4})
	want := fluidT.Serve(alloc[0], 0, 300, 4)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("emulated testbed sent %v Gbit in a slot dark for 4 s, fluid model %v", got, want)
	}
}
