package alloc

import (
	"math/rand"
	"testing"

	"owan/internal/topology"
)

// randomQuadCase scales the differential inputs into the three- and four-word
// row range (129–250 sites), which the wide harness (65–120) never reaches.
// The mix is tuned to force every engine verdict, not just the happy path:
// the spine has gaps so some components disconnect (frontier-exhaustion
// early-outs), demands are drawn from a small endpoint pool so pairs repeat
// across IDs, and rates run hot against link counts so claims saturate edges
// mid-run — which is what decays probe's stamped bounds and sends
// re-verification to the claim search.
func randomQuadCase(rng *rand.Rand) (*topology.LinkSet, []Demand, float64) {
	n := 129 + rng.Intn(122)
	ls := topology.NewLinkSet(n)
	for i := 0; i+1 < n; i++ {
		if rng.Float64() < 0.88 {
			ls.Add(i, i+1, 1+rng.Intn(3))
		}
	}
	chords := n + rng.Intn(2*n)
	for c := 0; c < chords; c++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		ls.Add(min(i, j), max(i, j), 1+rng.Intn(3))
	}
	// Endpoint pool of ~8 sites: repeated pairs pile demands onto the same
	// rows and the same bottlenecks, so later demands see stamps their
	// predecessors' claims have already invalidated.
	pool := make([]int, 8)
	for i := range pool {
		pool[i] = rng.Intn(n)
	}
	var ds []Demand
	for i := 0; i < 12+rng.Intn(28); i++ {
		s := pool[rng.Intn(len(pool))]
		d := pool[rng.Intn(len(pool))]
		if rng.Float64() < 0.3 { // some pairs outside the pool
			s, d = rng.Intn(n), rng.Intn(n)
		}
		if s == d {
			continue
		}
		rate := rng.Float64() * 120
		if rng.Float64() < 0.1 {
			rate = 0
		}
		ds = append(ds, Demand{ID: i, Src: s, Dst: d, RateGbps: rate})
	}
	theta := []float64{1, 2.5, 10}[rng.Intn(3)]
	return ls, ds, theta
}

// quadStatChecks asserts, over a whole differential run, that the engine
// paths the quad cases are built to force all actually fired — sweep
// exhaustion on disconnected components, claim-search failure cuts, and
// truncation-bound answers — so the agreement the run proves is not
// vacuous.
func quadStatChecks(t *testing.T, al *Allocator) {
	t.Helper()
	st := &al.stat
	t.Logf("engine stats: %+v", *st)
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"resumeStamp calls", st.resume},
		{"resume truncation-bound answers", st.resumeBound},
		{"resume exhaustion cuts", st.resumeExhaust},
		{"claimSearch calls", st.claim},
		{"claim failure cuts", st.claimCut},
	} {
		if c.n == 0 {
			t.Errorf("no %s across the run — the path was never exercised", c.name)
		}
	}
}

// TestAllocatorQuadMatchesReference is the 129–250-site differential: the
// engines on three- and four-word rows must reproduce the map-based
// reference exactly. The site range straddles the three/four-word boundary
// (193 sites), so the run also covers the handoff between widths, and one
// Allocator is reused across all seeds so resumed-row state from one load's
// topology can never leak a stale answer into the next.
func TestAllocatorQuadMatchesReference(t *testing.T) {
	al := NewAllocator()
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	saw := map[int]int{}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed + 40000))
		ls, ds, theta := randomQuadCase(rng)
		sameResult(t, seed, greedyReference(ls, theta, ds), al.Greedy(ls, theta, ds))
		saw[al.mw]++
	}
	if saw[4] == 0 || saw[3] == 0 {
		t.Fatalf("mask-width coverage hole: loads per width %v, want both 3 and 4", saw)
	}
	quadStatChecks(t, al)
}

// TestFrontierSparseDenseCrossing pins the bSparse enumeration threshold in
// resumeStamp (90–128 sites, so a frontier can outgrow bSparse). The graphs
// are dense enough that mid-sweep frontiers exceed bSparse nodes: every BFS
// starts sparse (a frontier of one), so sweeps must cross the threshold —
// within one call when a sweep spans several levels, or across a suspension
// when tier-truncated sweeps advance one level per call and the persisted
// sparse list carries the entry mode over. Sparse-list levels, word-swept
// levels, and threshold crossings must all be observed, and the results must
// match the reference exactly on both sides of every crossing.
func TestFrontierSparseDenseCrossing(t *testing.T) {
	al := NewAllocator()
	seeds := int64(150)
	if testing.Short() {
		seeds = 30
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed + 42000))
		n := 90 + rng.Intn(39)
		ls := topology.NewLinkSet(n)
		for i := 0; i+1 < n; i++ {
			ls.Add(i, i+1, 1+rng.Intn(3))
		}
		for c := 0; c < 5*n; c++ { // dense: frontiers blow past bSparse
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			ls.Add(min(i, j), max(i, j), 1+rng.Intn(2))
		}
		var ds []Demand
		for i := 0; i < 10+rng.Intn(20); i++ {
			s, d := rng.Intn(n), rng.Intn(n)
			if s == d {
				continue
			}
			ds = append(ds, Demand{ID: i, Src: s, Dst: d, RateGbps: rng.Float64() * 80})
		}
		sameResult(t, seed, greedyReference(ls, 2.5, ds), al.Greedy(ls, 2.5, ds))
	}
	st := &al.stat
	t.Logf("sweep stats: sparse=%d dense=%d mixed=%d", st.sweepSparse, st.sweepDense, st.sweepMixed)
	if st.sweepSparse == 0 || st.sweepDense == 0 {
		t.Fatalf("sweep modes not both exercised: sparse=%d dense=%d", st.sweepSparse, st.sweepDense)
	}
	if st.sweepMixed == 0 {
		t.Fatal("no sweep ever crossed the bSparse threshold within one call")
	}
}

// TestAllocatorQuadZeroAlloc: four-word rows must stay allocation-free in
// steady state, like one- and two-word rows.
func TestAllocatorQuadZeroAlloc(t *testing.T) {
	ls := topology.NewLinkSet(200)
	for i := 0; i+1 < ls.N; i++ {
		ls.Add(i, i+1, 2)
	}
	for i := 0; i+7 < ls.N; i += 3 {
		ls.Add(i, i+7, 1)
	}
	rng := rand.New(rand.NewSource(7))
	var ds []Demand
	for i := 0; i < 150; i++ {
		s, d := rng.Intn(ls.N), rng.Intn(ls.N)
		if s == d {
			continue
		}
		ds = append(ds, Demand{ID: i, Src: s, Dst: d, RateGbps: rng.Float64() * 40})
	}
	al := NewAllocator()
	al.Throughput(ls, 10, ds) // warm buffers
	if al.mw != 4 {
		t.Fatalf("expected four-word rows, mw=%d", al.mw)
	}
	if avg := testing.AllocsPerRun(20, func() {
		al.Throughput(ls, 10, ds)
	}); avg != 0 {
		t.Fatalf("quad Throughput allocates %.1f per run, want 0", avg)
	}
}
