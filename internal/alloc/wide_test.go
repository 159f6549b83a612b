package alloc

import (
	"math/rand"
	"testing"

	"owan/internal/topology"
)

// randomWideCase is randomCase scaled past the one-word boundary: 65–120
// sites, so every load runs on two-word rows. Chord probability
// drops with n to keep edge counts (and test runtime) in the same ballpark
// as real ISP topologies rather than dense graphs.
func randomWideCase(rng *rand.Rand) (*topology.LinkSet, []Demand, float64) {
	n := 65 + rng.Intn(56)
	ls := topology.NewLinkSet(n)
	for i := 0; i+1 < n; i++ {
		if rng.Float64() < 0.9 {
			ls.Add(i, i+1, 1+rng.Intn(3))
		}
	}
	chords := 2 * n
	for c := 0; c < chords; c++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		ls.Add(min(i, j), max(i, j), 1+rng.Intn(3))
	}
	var ds []Demand
	for i := 0; i < 5+rng.Intn(20); i++ {
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d {
			continue
		}
		rate := rng.Float64() * 60
		if rng.Float64() < 0.1 {
			rate = 0
		}
		ds = append(ds, Demand{ID: i, Src: s, Dst: d, RateGbps: rate})
	}
	theta := []float64{1, 2.5, 10}[rng.Intn(3)]
	return ls, ds, theta
}

// TestAllocatorWideMatchesReference is the >64-site differential: the
// engines on two-word rows must reproduce the map-based reference exactly —
// throughput, path lists, and rates. One Allocator is reused across all
// seeds so stale row state cannot hide.
func TestAllocatorWideMatchesReference(t *testing.T) {
	al := NewAllocator()
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ls, ds, theta := randomWideCase(rng)
		sameResult(t, seed, greedyReference(ls, theta, ds), al.Greedy(ls, theta, ds))
		if al.mw != 2 {
			t.Fatalf("seed %d: n=%d loaded %d-word rows, want 2", seed, ls.N, al.mw)
		}
	}
}

// TestThroughputPatchedWide extends the warm-path differential past 64
// sites: ThroughputPatched on two-word rows must equal the reference
// on the patched topology, and a cold Throughput afterwards must still be
// exact.
func TestThroughputPatchedWide(t *testing.T) {
	al := NewAllocator()
	seeds := int64(120)
	if testing.Short() {
		seeds = 30
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed + 9000))
		ls, ds, theta := randomWideCase(rng)
		al.SetBase(ls, theta)
		for trial := 0; trial < 3; trial++ {
			patched, patch := randomSwapPatch(rng, ls, 1+rng.Intn(3))
			want := greedyReference(patched, theta, ds).Throughput
			if got := al.ThroughputPatched(patch, ds); got != want {
				t.Fatalf("seed %d trial %d: wide ThroughputPatched %v != reference %v",
					seed, trial, got, want)
			}
		}
		if got, want := al.Throughput(ls, theta, ds), greedyReference(ls, theta, ds).Throughput; got != want {
			t.Fatalf("seed %d: cold Throughput after patches %v != reference %v", seed, got, want)
		}
	}
}

// TestAllocatorWideZeroAlloc: two-word rows must stay allocation-free in
// steady state, exactly like one-word rows.
func TestAllocatorWideZeroAlloc(t *testing.T) {
	ls := topology.NewLinkSet(100)
	for i := 0; i+1 < ls.N; i++ {
		ls.Add(i, i+1, 2)
	}
	for i := 0; i+4 < ls.N; i += 3 {
		ls.Add(i, i+4, 1)
	}
	rng := rand.New(rand.NewSource(5))
	var ds []Demand
	for i := 0; i < 120; i++ {
		s, d := rng.Intn(ls.N), rng.Intn(ls.N)
		if s == d {
			continue
		}
		ds = append(ds, Demand{ID: i, Src: s, Dst: d, RateGbps: rng.Float64() * 40})
	}
	al := NewAllocator()
	al.Throughput(ls, 10, ds) // warm buffers
	if al.mw != 2 {
		t.Fatalf("expected two-word rows, mw=%d", al.mw)
	}
	if avg := testing.AllocsPerRun(20, func() {
		al.Throughput(ls, 10, ds)
	}); avg != 0 {
		t.Fatalf("wide Throughput allocates %.1f per run, want 0", avg)
	}
}

// SetBase retains the enumeration of a base topology for subsequent
// ThroughputPatched calls. The LinkSet is only read during this call.
func (a *Allocator) SetBase(ls *topology.LinkSet, theta float64) {
	a.baseLinks = ls.AppendLinks(a.baseLinks[:0])
	a.baseN = ls.N
	a.baseTheta = theta
}
