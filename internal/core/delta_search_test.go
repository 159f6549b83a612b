package core

import (
	"fmt"
	"math/rand"
	"testing"

	"owan/internal/topology"
	"owan/internal/transfer"
)

// deltaHarnessNets mixes comfortable networks (where the snapshot trust gate
// passes and deltas evaluate warm) with the wavelength-starved Square (where
// every delta falls back cold), the full ISP40 benchmark topology, and a
// regenerator-starved ISP (two regenerators per concentration site, so the
// per-delta regenScarce flag and the regen-aware fallbacks actually fire) —
// the differential harness exercises both sides of every gate plus their
// interleaving on shared worker state.
func deltaHarnessNets() []*topology.Network {
	regenStarved := topology.ISP(16, 8, 3)
	regenStarved.PlaceRegenerators(2)
	return []*topology.Network{
		topology.Internet2(6),
		topology.Internet2(10),
		topology.ISP(12, 6, 1),
		topology.ISP(18, 8, 2),
		topology.ISP(40, 10, 1),
		regenStarved,
		topology.Square(),
	}
}

func randTransfers(rng *rand.Rand, sites int) []*transfer.Transfer {
	var reqs [][3]int
	for i := 0; i < 3+rng.Intn(8); i++ {
		s, d := rng.Intn(sites), rng.Intn(sites)
		if s == d {
			continue
		}
		reqs = append(reqs, [3]int{s, d, 200 + rng.Intn(5000)})
	}
	var ts []*transfer.Transfer
	for i, r := range reqs {
		ts = append(ts, transfer.NewTransfer(transfer.Request{
			ID: i, Src: r[0], Dst: r[1], SizeGbits: float64(r[2]), Deadline: transfer.NoDeadline,
		}))
	}
	return ts
}

func sameSearch(t *testing.T, name string, ref, got *NetworkState) {
	t.Helper()
	if !got.Topology.Equal(ref.Topology) {
		t.Fatalf("%s: topology diverged\n ref=%v\n got=%v", name, ref.Topology.Links(), got.Topology.Links())
	}
	if got.Stats.BestEnergy != ref.Stats.BestEnergy || got.Stats.InitialEnergy != ref.Stats.InitialEnergy {
		t.Fatalf("%s: energies diverged: best %v/%v initial %v/%v",
			name, got.Stats.BestEnergy, ref.Stats.BestEnergy, got.Stats.InitialEnergy, ref.Stats.InitialEnergy)
	}
	if got.Stats.Iterations != ref.Stats.Iterations || got.Stats.Accepted != ref.Stats.Accepted {
		t.Fatalf("%s: chain stats diverged: got %d/%d iterations/accepted, ref %d/%d",
			name, got.Stats.Iterations, got.Stats.Accepted, ref.Stats.Iterations, ref.Stats.Accepted)
	}
	if got.Stats.Churn != ref.Stats.Churn {
		t.Fatalf("%s: churn diverged: %d != %d", name, got.Stats.Churn, ref.Stats.Churn)
	}
	if !got.Effective.Equal(ref.Effective) {
		t.Fatalf("%s: effective topology diverged", name)
	}
}

// TestDeltaSearchMatchesClassic is the tentpole differential harness: across
// 300 randomized (network, workload, configuration) seeds, the full search
// with DeltaEval on must reproduce the DeltaEval-off search bit-identically —
// same trajectory, same best state, same stats. Any divergence means a delta
// evaluation was trusted when it should not have been (the one failure mode
// the trust gate must make impossible); untrusted deltas are allowed and show
// up in the fallback counter instead. The run requires both counters to be
// exercised so neither path can silently go vacuous.
func TestDeltaSearchMatchesClassic(t *testing.T) {
	nets := deltaHarnessNets()
	totalHits, totalFalls := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		net := nets[int(seed)%len(nets)]
		ts := randTransfers(rng, len(net.Sites))
		if len(ts) == 0 {
			continue
		}
		cfg := Config{
			Seed:          seed,
			MaxIterations: 60 + rng.Intn(60),
			BatchSize:     1 + rng.Intn(6),
			Workers:       []int{1, 1, 4}[rng.Intn(3)],
			NeighborMoves: 1 + rng.Intn(2),
		}
		rng.Intn(3) // the retired energy-cache size draw, kept so later seeds keep their configs
		if rng.Intn(4) == 0 {
			cfg.MaxChurn = -1 // unbounded: every candidate evaluates
		}

		ref := runSearch(net, ts, cfg)
		cfg.DeltaEval = true
		got := runSearch(net, ts, cfg)

		name := fmt.Sprintf("seed %d net %s w%d b%d", seed, net.Name, cfg.Workers, cfg.BatchSize)
		sameSearch(t, name, ref, got)
		if ref.Stats.DeltaHits != 0 || ref.Stats.DeltaFallbacks != 0 || ref.Stats.SnapshotBuilds != 0 {
			t.Fatalf("%s: delta counters nonzero with DeltaEval off: %+v", name, ref.Stats)
		}
		if n := got.Stats.DeltaHits + got.Stats.DeltaFallbacks; got.Stats.CacheMisses != n {
			t.Fatalf("%s: %d delta evaluations but %d cache misses", name, n, got.Stats.CacheMisses)
		}
		totalHits += got.Stats.DeltaHits
		totalFalls += got.Stats.DeltaFallbacks
	}
	if totalHits == 0 {
		t.Fatal("no trusted delta evaluations across 300 seeds — the fast path never ran")
	}
	if totalFalls == 0 {
		t.Fatal("no delta fallbacks across 300 seeds — the fallback path never ran")
	}
	t.Logf("delta hits=%d fallbacks=%d", totalHits, totalFalls)
}

// TestGoldenDeterminismDelta extends the golden determinism contract to
// DeltaEval: the delta-mode search must walk the exact chain of the classic
// reference for every worker and memo configuration.
func TestGoldenDeterminismDelta(t *testing.T) {
	net, ts := searchFixture()
	ref := runSearch(net, ts, Config{Seed: 42, MaxIterations: 240, BatchSize: 4, Workers: 1})
	variants := map[string]struct {
		cfg  Config
		prep func(*Owan)
	}{
		"delta-serial":     {Config{Seed: 42, MaxIterations: 240, BatchSize: 4, Workers: 1, DeltaEval: true}, nil},
		"delta-parallel":   {Config{Seed: 42, MaxIterations: 240, BatchSize: 4, Workers: 8, DeltaEval: true}, nil},
		"delta-no-memo":    {Config{Seed: 42, MaxIterations: 240, BatchSize: 4, Workers: 8, DeltaEval: true}, disablePersistence},
		"delta-batch-one":  {Config{Seed: 42, MaxIterations: 240, BatchSize: 4, Workers: 1, DeltaEval: true}, tinyMemo},
		"delta-multi-move": {Config{Seed: 42, MaxIterations: 240, BatchSize: 4, Workers: 4, NeighborMoves: 1, DeltaEval: true}, nil},
	}
	for name, v := range variants {
		got := runSearchOn(net, ts, v.cfg, v.prep)
		sameSearch(t, name, ref, got)
	}
}

// TestDeltaSearchCounters validates the delta bookkeeping: every delta-mode
// energy evaluation is either a trusted hit or a counted fallback, and the
// snapshot is rebuilt at most once per accepted base (plus the initial one).
func TestDeltaSearchCounters(t *testing.T) {
	net, ts := searchFixture()
	for _, workers := range []int{1, 4} {
		st := runSearch(net, ts, Config{
			Seed: 5, MaxIterations: 150, Workers: workers, BatchSize: 4, DeltaEval: true,
		})
		name := fmt.Sprintf("w%d", workers)
		sum := 0
		for _, e := range st.Stats.WorkerEvals {
			sum += e
		}
		if sum != st.Stats.CacheMisses {
			t.Errorf("%s: worker evals sum %d != cache misses %d", name, sum, st.Stats.CacheMisses)
		}
		if n := st.Stats.DeltaHits + st.Stats.DeltaFallbacks; n != sum {
			t.Errorf("%s: delta hits+fallbacks %d != evaluations %d", name, n, sum)
		}
		if st.Stats.SnapshotBuilds == 0 {
			t.Errorf("%s: no snapshot builds recorded", name)
		}
		if st.Stats.SnapshotBuilds > st.Stats.Accepted+1 {
			t.Errorf("%s: %d snapshot builds for %d acceptances — rebuilt without a base change",
				name, st.Stats.SnapshotBuilds, st.Stats.Accepted)
		}
		if st.Stats.DeltaHits == 0 {
			t.Errorf("%s: no trusted delta evaluations on a comfortable network", name)
		}
	}
}

// TestNeighborMovesMatchesComputeNeighbor pins the move generator to the
// materializing generator draw-for-draw: two controllers sharing a seed must
// produce identical candidate sequences, one as topologies and one as move
// lists, across a random walk of accepted bases.
func TestNeighborMovesMatchesComputeNeighbor(t *testing.T) {
	for _, moves := range []int{1, 2, 3} {
		net := topology.Internet2(6)
		a := New(Config{Net: net, Seed: 99, NeighborMoves: moves})
		b := New(Config{Net: net, Seed: 99, NeighborMoves: moves})
		cur := topology.InitialTopology(net)
		var links []topology.Link
		var buf []swapMove
		for step := 0; step < 200; step++ {
			want := a.ComputeNeighbor(cur)
			links = cur.AppendLinks(links[:0])
			var ok bool
			buf, ok = b.neighborMoves(links, cur.TotalCircuits(), buf[:0])
			if (want == nil) != !ok {
				t.Fatalf("moves=%d step %d: generators disagree on feasibility", moves, step)
			}
			if want == nil {
				continue
			}
			got := materializeMoves(cur, buf)
			if !got.Equal(want) {
				t.Fatalf("moves=%d step %d: candidates diverged\n want=%v\n got=%v",
					moves, step, want.Links(), got.Links())
			}
			// Walk both chains to a new base occasionally so later steps
			// sample from evolved topologies.
			if step%3 == 0 {
				cur = want
			}
		}
	}
}
