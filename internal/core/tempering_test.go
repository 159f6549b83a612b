package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"owan/internal/topology"
	"owan/internal/transfer"
)

// TestTemperedGoldenDeterminism extends the PR 1 determinism contract to
// tempering: for a fixed (Seed, BatchSize, Replicas) the search result —
// topology, energy, chain stats, and the exchange counters — is
// bit-identical across Workers ∈ {1, 4, GOMAXPROCS} and with or without the
// memo. This test also runs under `make race`, where it doubles
// as the data-race check on the flattened multi-replica batches.
func TestTemperedGoldenDeterminism(t *testing.T) {
	net, ts := searchFixture()
	base := Config{Seed: 42, MaxIterations: 240, BatchSize: 4, Replicas: 4, Workers: 1}

	ref := runSearch(net, ts, base)
	if ref.Stats.Iterations == 0 || ref.Stats.Accepted == 0 {
		t.Fatalf("degenerate reference search: %+v", ref.Stats)
	}
	if ref.Stats.Replicas != 4 {
		t.Fatalf("Stats.Replicas = %d, want 4", ref.Stats.Replicas)
	}
	if ref.Stats.ExchangeAttempts == 0 {
		t.Fatalf("tempered search attempted no exchanges: %+v", ref.Stats)
	}

	variants := map[string]struct {
		cfg  Config
		prep func(*Owan)
	}{
		"rerun":            {base, nil},
		"parallel-4":       {Config{Seed: 42, MaxIterations: 240, BatchSize: 4, Replicas: 4, Workers: 4}, nil},
		"gomaxprocs":       {Config{Seed: 42, MaxIterations: 240, BatchSize: 4, Replicas: 4, Workers: runtime.GOMAXPROCS(0)}, nil},
		"parallel-no-memo": {Config{Seed: 42, MaxIterations: 240, BatchSize: 4, Replicas: 4, Workers: 4}, disablePersistence},
		"oversized-pool":   {Config{Seed: 42, MaxIterations: 240, BatchSize: 4, Replicas: 4, Workers: 16}, nil},
	}
	for name, v := range variants {
		got := runSearchOn(net, ts, v.cfg, v.prep)
		if !got.Topology.Equal(ref.Topology) {
			t.Errorf("%s: topology diverged from reference\n ref=%v\n got=%v",
				name, ref.Topology.Links(), got.Topology.Links())
		}
		if got.Stats.BestEnergy != ref.Stats.BestEnergy {
			t.Errorf("%s: best energy %v != reference %v", name, got.Stats.BestEnergy, ref.Stats.BestEnergy)
		}
		if got.Stats.Iterations != ref.Stats.Iterations || got.Stats.Accepted != ref.Stats.Accepted {
			t.Errorf("%s: chain stats diverged: got %d/%d iterations/accepted, ref %d/%d",
				name, got.Stats.Iterations, got.Stats.Accepted, ref.Stats.Iterations, ref.Stats.Accepted)
		}
		if got.Stats.ExchangeAttempts != ref.Stats.ExchangeAttempts || got.Stats.Exchanges != ref.Stats.Exchanges {
			t.Errorf("%s: exchange counters diverged: got %d/%d attempts/accepted, ref %d/%d",
				name, got.Stats.ExchangeAttempts, got.Stats.Exchanges, ref.Stats.ExchangeAttempts, ref.Stats.Exchanges)
		}
		if got.Stats.EarlyExit != ref.Stats.EarlyExit {
			t.Errorf("%s: early-exit diverged: got %v, ref %v", name, got.Stats.EarlyExit, ref.Stats.EarlyExit)
		}
	}

	// Replica count is part of the trajectory: a different R must diverge,
	// or the assertions above prove nothing.
	other := runSearch(net, ts, Config{Seed: 42, MaxIterations: 240, BatchSize: 4, Replicas: 2, Workers: 1})
	if other.Topology.Equal(ref.Topology) && other.Stats.Accepted == ref.Stats.Accepted {
		t.Log("warning: Replicas=2 matched Replicas=4 exactly; fixture may be too easy")
	}
}

// TestTemperedCounters pins the bookkeeping of a tempered search: iteration
// accounting sums over rungs, the exchange counters are consistent, and a
// single-chain search reports the zero values for all tempering fields.
func TestTemperedCounters(t *testing.T) {
	net, ts := searchFixture()
	// Early exit needs convergeWindows exchange windows of exchangeInterval
	// rounds of 4 candidates each (3 × 4 × 4 = 48 iterations per rung), so a
	// 40-iteration cap cannot trigger it.
	const iters = 40
	st := runSearch(net, ts, Config{Seed: 7, MaxIterations: iters, BatchSize: 4, Replicas: 3})
	if st.Stats.Replicas != 3 {
		t.Errorf("Replicas = %d, want 3", st.Stats.Replicas)
	}
	// Per-rung iterations are capped at MaxIterations; with no early exit
	// and no generation failure every rung runs the full cap.
	if st.Stats.Iterations != 3*iters {
		t.Errorf("Iterations = %d, want %d (summed over 3 rungs)", st.Stats.Iterations, 3*iters)
	}
	if st.Stats.Exchanges > st.Stats.ExchangeAttempts {
		t.Errorf("Exchanges %d > ExchangeAttempts %d", st.Stats.Exchanges, st.Stats.ExchangeAttempts)
	}
	if st.Stats.ExchangeAttempts == 0 {
		t.Error("no exchange attempts in a 3-replica search")
	}
	if st.Stats.EarlyExit {
		t.Errorf("EarlyExit reported within %d iterations, fewer than convergeWindows windows", iters)
	}
	if st.Stats.InitialTemp <= 0 {
		t.Errorf("InitialTemp = %v, want > 0", st.Stats.InitialTemp)
	}

	single := runSearch(net, ts, Config{Seed: 7, MaxIterations: 120, BatchSize: 4})
	if single.Stats.Replicas != 1 {
		t.Errorf("single-chain Replicas = %d, want 1", single.Stats.Replicas)
	}
	if single.Stats.ExchangeAttempts != 0 || single.Stats.Exchanges != 0 {
		t.Errorf("single-chain search reports exchange activity: %d/%d",
			single.Stats.ExchangeAttempts, single.Stats.Exchanges)
	}
	if single.Stats.WarmStarted || single.Stats.EarlyExit {
		t.Errorf("single cold search reports WarmStarted=%v EarlyExit=%v",
			single.Stats.WarmStarted, single.Stats.EarlyExit)
	}
}

// TestTemperedBestAtLeastInitial: the tempered search, like the single
// chain, can only improve on the slot's starting energy, for any replica
// count and with warm starts on.
func TestTemperedBestAtLeastInitial(t *testing.T) {
	net, ts := searchFixture()
	for _, r := range []int{1, 2, 4, 6} {
		st := runSearch(net, ts, Config{Seed: int64(100 + r), MaxIterations: 160, BatchSize: 4, Replicas: r, WarmStart: true})
		if st.Stats.BestEnergy < st.Stats.InitialEnergy {
			t.Errorf("R=%d: best %v < initial %v", r, st.Stats.BestEnergy, st.Stats.InitialEnergy)
		}
	}
}

// warmWalk runs nSlots searches on one controller, feeding each slot's best
// topology into the next, with demandSeed(slot) selecting the workload.
func warmWalk(cfg Config, net *topology.Network, nSlots int, demandSeed func(slot int) int64) []*NetworkState {
	cfg.Net = net
	cfg.Policy = transfer.SJF
	o := New(cfg)
	defer o.Close()
	cur := topology.InitialTopology(net)
	out := make([]*NetworkState, 0, nSlots)
	for slot := 0; slot < nSlots; slot++ {
		ts := randTransfers(rand.New(rand.NewSource(demandSeed(slot))), len(net.Sites))
		st := o.ComputeNetworkState(cur, ts, slot, 300)
		out = append(out, st)
		cur = st.Topology
	}
	return out
}

// TestWarmStartNeverDegradesRepeatedSlot is the warm-start property test:
// when a slot repeats the previous slot's demands exactly, the warm-started
// slot starts from the cold slot's accepted topology — so its initial
// energy equals the cold slot's accepted energy bit-for-bit, its best can
// only be equal or better, and with nothing left to improve the early exit
// fires instead of burning the full schedule.
func TestWarmStartNeverDegradesRepeatedSlot(t *testing.T) {
	net := topology.ISP(30, 8, 1)
	for seed := int64(0); seed < 8; seed++ {
		cfg := Config{Seed: seed, MaxIterations: 600, BatchSize: 4, WarmStart: true}
		// Both slots draw the identical demand set.
		sts := warmWalk(cfg, net, 2, func(int) int64 { return 5000 + seed })
		cold, warm := sts[0], sts[1]
		if cold.Stats.WarmStarted {
			t.Fatalf("seed %d: first slot claims a warm start", seed)
		}
		if !warm.Stats.WarmStarted {
			t.Fatalf("seed %d: repeated slot did not warm-start", seed)
		}
		if warm.Stats.InitialEnergy != cold.Stats.BestEnergy {
			t.Errorf("seed %d: repeated slot's initial energy %v != previous accepted %v",
				seed, warm.Stats.InitialEnergy, cold.Stats.BestEnergy)
		}
		if warm.Stats.BestEnergy < cold.Stats.BestEnergy {
			t.Errorf("seed %d: warm start degraded accepted energy: %v < %v",
				seed, warm.Stats.BestEnergy, cold.Stats.BestEnergy)
		}
		coldT0 := warm.Stats.InitialEnergy * initTempFrac
		if warm.Stats.InitialTemp >= coldT0 {
			t.Errorf("seed %d: warm slot started at %v, not below the cold T0 %v",
				seed, warm.Stats.InitialTemp, coldT0)
		}
		if !warm.Stats.EarlyExit && warm.Stats.Iterations >= cold.Stats.Iterations {
			t.Errorf("seed %d: repeated-demand slot neither early-exited nor ran a shorter schedule (%d vs %d iterations)",
				seed, warm.Stats.Iterations, cold.Stats.Iterations)
		}
	}
}

// TestWarmStartTracksColdUnderDrift walks 5 slots of drifting demands twice
// — one controller warm-starting, one cold — and asserts the warm walk's
// accepted energy stays within the acceptance tolerance of the cold walk's
// on every slot, while spending fewer total iterations. Warm starting trades
// schedule length for locality; this pins that the trade never costs more
// than a few percent of energy on workloads with slot-to-slot locality.
func TestWarmStartTracksColdUnderDrift(t *testing.T) {
	net := topology.ISP(30, 8, 1)
	const slots = 5
	for seed := int64(0); seed < 4; seed++ {
		// Drift: consecutive slots share most of their demand draw.
		demand := func(slot int) int64 { return 9000 + seed*17 + int64(slot/2) }
		warm := warmWalk(Config{Seed: seed, MaxIterations: 600, BatchSize: 4, WarmStart: true}, net, slots, demand)
		cold := warmWalk(Config{Seed: seed, MaxIterations: 600, BatchSize: 4}, net, slots, demand)
		warmIters, coldIters := 0, 0
		for s := 0; s < slots; s++ {
			warmIters += warm[s].Stats.Iterations
			coldIters += cold[s].Stats.Iterations
			if tol := 0.95 * cold[s].Stats.BestEnergy; warm[s].Stats.BestEnergy < tol {
				t.Errorf("seed %d slot %d: warm energy %v fell below 95%% of cold %v",
					seed, s, warm[s].Stats.BestEnergy, cold[s].Stats.BestEnergy)
			}
		}
		if warmIters >= coldIters {
			t.Errorf("seed %d: warm walk spent %d iterations, cold %d — no schedule saving",
				seed, warmIters, coldIters)
		}
	}
}

// TestWarmStartTempBounds unit-tests the temperature seeding rule directly:
// floored at warmTempFloor x coldT0, scaled by relative drift, never above
// coldT0, never below the previous final temperature, and inert without a
// recorded previous slot.
func TestWarmStartTempBounds(t *testing.T) {
	o := New(Config{Net: topology.Internet2(4), WarmStart: true, Seed: 1})
	coldT0 := 10.0
	if T, warm := o.warmStartTemp(100, coldT0); warm || T != coldT0 {
		t.Errorf("no recorded slot: got (%v, %v), want cold start at %v", T, warm, coldT0)
	}
	o.warmE, o.warmT, o.warmValid = 100, 1e-3, true
	if T, warm := o.warmStartTemp(100, coldT0); !warm || T != coldT0*warmTempFloor {
		t.Errorf("zero drift: got (%v, %v), want floor %v", T, warm, coldT0*warmTempFloor)
	}
	if T, _ := o.warmStartTemp(80, coldT0); math.Abs(T-coldT0*0.2) > 1e-12 {
		t.Errorf("20%% drift: got %v, want %v", T, coldT0*0.2)
	}
	if T, _ := o.warmStartTemp(500, coldT0); T != coldT0 {
		t.Errorf("huge drift: got %v, want cap at coldT0 %v", T, coldT0)
	}
	o.warmT = 5
	if T, _ := o.warmStartTemp(100, coldT0); T != 5 {
		t.Errorf("previous final temp above floor: got %v, want 5", T)
	}
	o2 := New(Config{Net: topology.Internet2(4), Seed: 1})
	o2.warmE, o2.warmT, o2.warmValid = 100, 1e-3, true
	if T, warm := o2.warmStartTemp(100, coldT0); warm || T != coldT0 {
		t.Errorf("WarmStart off: got (%v, %v), want cold start", T, warm)
	}
}

// TestWarmStateResetOnRegenWeights: flipping the regenerator-weight ablation
// invalidates the recorded warm energy, so the next slot runs cold.
func TestWarmStateResetOnRegenWeights(t *testing.T) {
	net, ts := searchFixture()
	cfg := Config{Net: net, Policy: transfer.SJF, Seed: 3, MaxIterations: 60, BatchSize: 2, WarmStart: true}
	o := New(cfg)
	defer o.Close()
	cur := topology.InitialTopology(net)
	st := o.ComputeNetworkState(cur, ts, 0, 300)
	o.SetUnitRegenWeights(true)
	st2 := o.ComputeNetworkState(st.Topology, ts, 1, 300)
	if st2.Stats.WarmStarted {
		t.Error("slot after SetUnitRegenWeights warm-started from stale energy")
	}
	st3 := o.ComputeNetworkState(st2.Topology, ts, 2, 300)
	if !st3.Stats.WarmStarted {
		t.Error("warm start did not resume after a fresh slot rebuilt the state")
	}
}

// TestTemperedSteadyStateAllocs bounds the per-slot allocations of a warm
// tempered search on a persistent controller. The candidate recycling pool,
// the enumeration scratch in swapOnce, and the static optical errors took
// the tempered batch path from tens of thousands of allocations per slot to
// a small residue (accepted states that escape the pool, cache bookkeeping);
// the bound has headroom over that residue but is far below what any
// per-proposal Clone or per-failure Errorf regression would produce.
func TestTemperedSteadyStateAllocs(t *testing.T) {
	net, ts := searchFixture()
	o := New(Config{
		Net: net, Policy: transfer.SJF, Seed: 42,
		MaxIterations: 240, BatchSize: 4, Replicas: 4, Workers: 1,
		WarmStart: true,
	})
	defer o.Close()
	start := topology.InitialTopology(net)
	slot := 0
	for ; slot < 3; slot++ { // warm the evaluator, caches, and pool
		o.ComputeNetworkState(start, ts, slot, 300)
	}
	iters := 0
	avg := testing.AllocsPerRun(5, func() {
		st := o.ComputeNetworkState(start, ts, slot, 300)
		slot++
		iters += st.Stats.Iterations
	})
	if iters == 0 {
		t.Fatal("warm slots ran no iterations; the bound would be vacuous")
	}
	t.Logf("allocs per warm tempered slot: %.0f (%d iterations total)", avg, iters)
	if avg > 2000 {
		t.Errorf("warm tempered slot allocates %.0f objects, want <= 2000", avg)
	}
}
