package core

import (
	"fmt"
	"math/rand"
	"testing"

	"owan/internal/topology"
	"owan/internal/transfer"
)

// deltaHarnessNets mixes comfortable networks with the wavelength-starved
// Square, the full ISP40 benchmark topology, and a regenerator-starved ISP
// (two regenerators per concentration site), so the differential harness
// covers provisioning with and without shortfalls, on shared worker state.
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

// TestDeltaSearchMatchesClassic is the differential between the two ways
// the search materializes candidates: across 300 randomized (network,
// workload, configuration) seeds, at one to three replicas, the search with
// DeltaEval on (candidates materialized on accept or best, churn summed over
// the touched pairs) must reproduce the DeltaEval-off search (every candidate
// materialized, churn from Diff) bit-identically — same trajectory, same
// best state, same stats. TestSearchFingerprint holds both to the committed
// trajectories.
func TestDeltaSearchMatchesClassic(t *testing.T) {
	nets := deltaHarnessNets()
	for seed := int64(0); seed < 300; seed++ {
		net, ts, cfg, ok := deltaHarnessCase(seed, nets)
		if !ok {
			continue
		}
		ref := runSearch(net, ts, cfg)
		cfg.DeltaEval = true
		got := runSearch(net, ts, cfg)

		name := fmt.Sprintf("seed %d net %s w%d b%d r%d", seed, net.Name, cfg.Workers, cfg.BatchSize, cfg.Replicas)
		sameSearch(t, name, ref, got)
	}
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

// TestDeltaSearchCounters validates the evaluator's bookkeeping in both
// materialization modes: every energy computation is a memo miss, and every
// cold evaluation — the misses plus the search's initial energy — either had
// its effective links served by the memo or provisioned them.
func TestDeltaSearchCounters(t *testing.T) {
	net, ts := searchFixture()
	for _, delta := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			st := runSearch(net, ts, Config{
				Seed: 5, MaxIterations: 150, Workers: workers, BatchSize: 4, DeltaEval: delta,
			})
			name := fmt.Sprintf("delta=%v w%d", delta, workers)
			sum := 0
			for _, e := range st.Stats.WorkerEvals {
				sum += e
			}
			if sum != st.Stats.CacheMisses || sum == 0 {
				t.Errorf("%s: worker evals sum %d, cache misses %d", name, sum, st.Stats.CacheMisses)
			}
			if n := st.Stats.ProvisionHits + st.Stats.ProvisionMisses; n != sum+1 {
				t.Errorf("%s: %d provision hits+misses for %d evaluations plus the initial one", name, n, sum)
			}
		}
	}
}

// swapOnce is the generator's reference: the materializing swap the move
// generator replaced, kept here to pin it draw for draw. It applies one
// elementary 2-circuit swap of s drawn from rng to a clone, or returns nil
// when 32 tries find none.
func swapOnce(rng *rand.Rand, s *topology.LinkSet) *topology.LinkSet {
	links := s.Links()
	if len(links) == 0 || s.TotalCircuits() < 2 {
		return nil
	}
	// Sample circuit instances weighted by multiplicity.
	sample := func() (int, int) {
		k := rng.Intn(s.TotalCircuits())
		for _, l := range links {
			if k < l.Count {
				// Random orientation.
				if rng.Intn(2) == 0 {
					return l.U, l.V
				}
				return l.V, l.U
			}
			k -= l.Count
		}
		panic("unreachable")
	}
	for try := 0; try < 32; try++ {
		u, v := sample()
		p, q := sample()
		// Moving capacity from (u,v)+(p,q) to (u,p)+(v,q).
		if u == p || v == q {
			continue
		}
		if u == v || p == q {
			continue
		}
		if s.Get(u, v) == 0 || s.Get(p, q) == 0 {
			continue
		}
		// If (u,v) == (p,q) as a link, it must hold at least 2 circuits.
		if canonEq(u, v, p, q) && s.Get(u, v) < 2 {
			continue
		}
		n := s.Clone()
		n.Add(u, v, -1)
		n.Add(p, q, -1)
		n.Add(u, p, 1)
		n.Add(v, q, 1)
		return n
	}
	return nil
}

// refNeighbor chains moves swapOnce calls, each on the previous result, as
// Algorithm 2's neighbor of NeighborMoves swaps: nil when the first finds no
// swap, the last state reached when a later one does not.
func refNeighbor(rng *rand.Rand, s *topology.LinkSet, moves int) *topology.LinkSet {
	out := s
	for m := 0; m < moves; m++ {
		n := swapOnce(rng, out)
		if n == nil {
			if m > 0 {
				return out
			}
			return nil
		}
		out = n
	}
	return out
}

// TestNeighborMovesMatchesComputeNeighbor pins the move generator to the
// swapOnce reference draw for draw: on RNGs seeded alike — rung 0's
// controller stream and the streams of rungs r ≥ 1 — neighborMoves plus
// materializeMoves, and ComputeNeighbor, must produce the reference's
// candidates and leave the RNGs in the same state, across a random walk of
// bases, at one to three moves per neighbor.
func TestNeighborMovesMatchesComputeNeighbor(t *testing.T) {
	for _, moves := range []int{1, 2, 3} {
		for r := 0; r < 3; r++ {
			net := topology.Internet2(6)
			seed := int64(99)
			if r > 0 {
				seed = mixSeed(99, 1, r)
			}
			ref := rand.New(rand.NewSource(seed))
			o := New(Config{Net: net, Seed: seed, NeighborMoves: moves})
			rng := o.rng // rung 0's stream; rungs r ≥ 1 own theirs
			if r > 0 {
				rng = rand.New(rand.NewSource(seed))
			}
			cur := topology.InitialTopology(net)
			var links []topology.Link
			var buf []swapMove
			for step := 0; step < 200; step++ {
				want := refNeighbor(ref, cur, moves)
				var got *topology.LinkSet
				if r == 0 && step%2 == 0 {
					got = o.ComputeNeighbor(cur) // draws from o.rng
				} else {
					links = cur.AppendLinks(links[:0])
					var ok bool
					buf, ok = o.neighborMoves(rng, links, cur.TotalCircuits(), buf[:0])
					if ok {
						got = o.materializeMoves(cur, buf)
					}
				}
				name := fmt.Sprintf("moves=%d rung %d step %d", moves, r, step)
				if (want == nil) != (got == nil) {
					t.Fatalf("%s: generators disagree on feasibility", name)
				}
				if want != nil && !got.Equal(want) {
					t.Fatalf("%s: candidates diverged\n want=%v\n got=%v", name, want.Links(), got.Links())
				}
				// Walk to a new base occasionally so later steps sample from
				// evolved topologies.
				if want != nil && step%3 == 0 {
					cur = want
				}
			}
			if ref.Int63() != rng.Int63() {
				t.Fatalf("moves=%d rung %d: the generators consumed their RNGs differently", moves, r)
			}
		}
	}
}
