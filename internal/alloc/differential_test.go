package alloc

import (
	"math/rand"
	"testing"

	"owan/internal/topology"
)

// randomCase draws a random connected-ish topology and demand set. The
// generator deliberately produces saturated, unroutable, and zero-rate
// demands so the differential tests cover every branch of the tier loop.
func randomCase(rng *rand.Rand) (*topology.LinkSet, []Demand, float64) {
	n := 3 + rng.Intn(10)
	ls := topology.NewLinkSet(n)
	// A random spine keeps most sites connected, then random chords.
	for i := 0; i+1 < n; i++ {
		if rng.Float64() < 0.85 {
			ls.Add(i, i+1, 1+rng.Intn(3))
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				ls.Add(i, j, 1+rng.Intn(3))
			}
		}
	}
	var ds []Demand
	for i := 0; i < rng.Intn(14); i++ {
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d {
			continue
		}
		rate := rng.Float64() * 60
		if rng.Float64() < 0.1 {
			rate = 0 // already-met demand
		}
		ds = append(ds, Demand{ID: i, Src: s, Dst: d, RateGbps: rate})
	}
	theta := []float64{1, 2.5, 10}[rng.Intn(3)]
	return ls, ds, theta
}

// boundarySizes are topology sizes at and around the bitset word
// boundaries: the smallest graph, sizes inside the first word, each full
// last word (64, 128, 256), and the first site of each new word (65, 129,
// 193).
var boundarySizes = []int{2, 40, 63, 64, 65, 127, 128, 129, 192, 193, 255, 256}

// boundaryCase draws a case on exactly n sites: a gapped spine plus n–2n
// chords, and hot demands drawn mostly from a small endpoint pool that
// always holds the last site (the top bit of the last row word), so claims
// saturate edges, components split, and the last word's high bits are
// labeled, claimed through and cut.
func boundaryCase(rng *rand.Rand, n int) (*topology.LinkSet, []Demand, float64) {
	ls := topology.NewLinkSet(n)
	for i := 0; i+1 < n; i++ {
		if rng.Float64() < 0.9 {
			ls.Add(i, i+1, 1+rng.Intn(3))
		}
	}
	chords := n + rng.Intn(n)
	for c := 0; c < chords; c++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			ls.Add(min(i, j), max(i, j), 1+rng.Intn(3))
		}
	}
	pool := []int{n - 1, 0, rng.Intn(n), rng.Intn(n), rng.Intn(n), rng.Intn(n)}
	var ds []Demand
	for i := 0; i < 10+rng.Intn(30); i++ {
		s, d := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		if rng.Float64() < 0.3 {
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

// boundarySeeds is the number of cases per boundary size in each reference
// differential.
const boundarySeeds = 20

// sameResult asserts two results are bit-identical: same throughput, same
// demand IDs, and per demand the same ordered path/rate lists.
func sameResult(t *testing.T, seed int64, want, got *Result) {
	t.Helper()
	if want.Throughput != got.Throughput {
		t.Fatalf("seed %d: throughput %v != reference %v", seed, got.Throughput, want.Throughput)
	}
	if len(want.Alloc) != len(got.Alloc) {
		t.Fatalf("seed %d: alloc map sizes differ: %d != %d", seed, len(got.Alloc), len(want.Alloc))
	}
	for id, wprs := range want.Alloc {
		gprs, ok := got.Alloc[id]
		if !ok || len(gprs) != len(wprs) {
			t.Fatalf("seed %d: demand %d: %d paths, reference %d", seed, id, len(gprs), len(wprs))
		}
		for k := range wprs {
			if wprs[k].Rate != gprs[k].Rate {
				t.Fatalf("seed %d: demand %d path %d: rate %v != reference %v", seed, id, k, gprs[k].Rate, wprs[k].Rate)
			}
			if len(wprs[k].Path) != len(gprs[k].Path) {
				t.Fatalf("seed %d: demand %d path %d: length %d != reference %d", seed, id, k, len(gprs[k].Path), len(wprs[k].Path))
			}
			for x := range wprs[k].Path {
				if wprs[k].Path[x] != gprs[k].Path[x] {
					t.Fatalf("seed %d: demand %d path %d: node %d: %d != reference %d",
						seed, id, k, x, gprs[k].Path[x], wprs[k].Path[x])
				}
			}
		}
	}
}

// TestAllocatorMatchesReferenceGreedy is the flat-vs-map differential: on
// randomized topologies and demand sets the Allocator must reproduce the
// reference implementation exactly — throughput, path lists, and rates —
// on small graphs and at every word-boundary size. One Allocator is reused
// across all seeds so buffer-reuse bugs (stale residuals, unreset tiers)
// cannot hide.
func TestAllocatorMatchesReferenceGreedy(t *testing.T) {
	al := NewAllocator()
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ls, ds, theta := randomCase(rng)
		sameResult(t, seed, greedyReference(ls, theta, ds), al.Greedy(ls, theta, ds))
	}
	for _, n := range boundarySizes {
		for seed := int64(1000 * n); seed < int64(1000*n)+boundarySeeds; seed++ {
			ls, ds, theta := boundaryCase(rand.New(rand.NewSource(seed)), n)
			sameResult(t, seed, greedyReference(ls, theta, ds), al.Greedy(ls, theta, ds))
		}
	}
}

// TestAllocatorMatchesReferenceSequential is the same differential for the
// no-tier ablation variant. Its loop claims through claimSearch alone, so
// the run must also show the stored claim trees being reused — chain fast
// path, subtree repair and extension — within each load; a load whose
// trees did not outlive their first claim would cold-build every one.
func TestAllocatorMatchesReferenceSequential(t *testing.T) {
	al := NewAllocator()
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ls, ds, theta := randomCase(rng)
		sameResult(t, seed, greedySequentialReference(ls, theta, ds), al.GreedySequential(ls, theta, ds))
	}
	for _, n := range boundarySizes {
		for seed := int64(1000 * n); seed < int64(1000*n)+boundarySeeds; seed++ {
			ls, ds, theta := boundaryCase(rand.New(rand.NewSource(seed)), n)
			sameResult(t, seed, greedySequentialReference(ls, theta, ds), al.GreedySequential(ls, theta, ds))
		}
	}
	st := &al.stat
	t.Logf("claim stats: calls=%d fast=%d repair=%d resume=%d", st.claim, st.claimFast, st.claimRepair, st.claimResume)
	if st.claimFast == 0 || st.claimRepair == 0 || st.claimResume == 0 {
		t.Fatalf("sequential claims never reused a stored tree: fast=%d repair=%d resume=%d",
			st.claimFast, st.claimRepair, st.claimResume)
	}
}

// TestAllocatorThroughputMatchesGreedy pins Throughput to the Greedy sum so
// the record-free fast path cannot drift from the recording path.
func TestAllocatorThroughputMatchesGreedy(t *testing.T) {
	al := NewAllocator()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ls, ds, theta := randomCase(rng)
		want := al.Greedy(ls, theta, ds).Throughput
		if got := al.Throughput(ls, theta, ds); got != want {
			t.Fatalf("seed %d: Throughput %v != Greedy throughput %v", seed, got, want)
		}
	}
}

// TestAllocatorThroughputZeroAlloc is the steady-state zero-allocation
// claim: once the Allocator's buffers have grown to the topology size, the
// energy evaluation allocates nothing.
func TestAllocatorThroughputZeroAlloc(t *testing.T) {
	net := topology.ISP(25, 8, 1)
	ls := topology.InitialTopology(net)
	rng := rand.New(rand.NewSource(3))
	var ds []Demand
	for i := 0; i < 80; i++ {
		s, d := rng.Intn(25), rng.Intn(25)
		if s == d {
			continue
		}
		ds = append(ds, Demand{ID: i, Src: s, Dst: d, RateGbps: rng.Float64() * 30})
	}
	al := NewAllocator()
	al.Throughput(ls, net.ThetaGbps, ds) // warm the buffers
	if avg := testing.AllocsPerRun(20, func() {
		al.Throughput(ls, net.ThetaGbps, ds)
	}); avg != 0 {
		t.Errorf("Allocator.Throughput allocates %v objects/op in steady state, want 0", avg)
	}
}

// TestAllocatorReuseAcrossTopologySizes shrinks and grows the topology
// between calls on one Allocator: leftover state from a larger load must
// never leak into a smaller one, nor a narrower row width into a wider one.
// After the small-graph alternation the loads walk the word-boundary sizes
// up, down, and in a shuffled order, so the row width grows and shrinks
// across every word count on one allocator.
func TestAllocatorReuseAcrossTopologySizes(t *testing.T) {
	al := NewAllocator()
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(9000 + seed))
		ls, ds, theta := randomCase(rng)
		sameResult(t, seed, greedyReference(ls, theta, ds), al.Greedy(ls, theta, ds))
		// Tiny follow-up case on the same allocator.
		tiny := topology.NewLinkSet(2)
		tiny.Add(0, 1, 1)
		d2 := []Demand{{ID: 0, Src: 0, Dst: 1, RateGbps: 25}}
		sameResult(t, seed, greedyReference(tiny, 10, d2), al.Greedy(tiny, 10, d2))
	}
	rng := rand.New(rand.NewSource(9500))
	order := append([]int(nil), boundarySizes...)
	for i := len(boundarySizes) - 1; i >= 0; i-- {
		order = append(order, boundarySizes[i])
	}
	for _, i := range rng.Perm(len(boundarySizes)) {
		order = append(order, boundarySizes[i])
	}
	grew, shrank := 0, 0
	for k, n := range order {
		prev := al.mw
		ls, ds, theta := boundaryCase(rng, n)
		want := greedyReference(ls, theta, ds)
		sameResult(t, int64(k), want, al.Greedy(ls, theta, ds))
		if got := al.Throughput(ls, theta, ds); got != want.Throughput {
			t.Fatalf("load %d (n=%d): Throughput %v != reference %v", k, n, got, want.Throughput)
		}
		switch {
		case al.mw > prev:
			grew++
		case al.mw < prev:
			shrank++
		}
	}
	if grew == 0 || shrank == 0 {
		t.Fatalf("row width never crossed both ways: grew %d, shrank %d", grew, shrank)
	}
}

// BenchmarkGreedyAlloc measures the steady-state energy evaluation on a
// reused Allocator (the configuration the annealing workers run).
func BenchmarkGreedyAlloc(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := topology.ISP(40, 10, 1)
	ls := topology.InitialTopology(net)
	var ds []Demand
	for i := 0; i < 200; i++ {
		s, d := rng.Intn(40), rng.Intn(40)
		if s == d {
			continue
		}
		ds = append(ds, Demand{ID: i, Src: s, Dst: d, RateGbps: rng.Float64() * 30})
	}
	al := NewAllocator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Throughput(ls, 10, ds)
	}
}
