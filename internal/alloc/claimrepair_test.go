package alloc

import (
	"math/rand"
	"testing"

	"owan/internal/topology"
)

// TestClaimRepairDifferential is the claim-tree reuse differential: a
// mixed-width case stream (single-word, two-word, and three/four-word rows)
// run through one persistent allocator and checked path for path and rate
// for rate against the map-based reference. Because the allocator persists
// across seeds, stale trees from a previous load's topology and width are
// also in play (cGen must fence them off). Every reuse path must fire: chain
// fast-path answers, subtree repairs, tree extensions, and cold builds.
func TestClaimRepairDifferential(t *testing.T) {
	al := NewAllocator()
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed + 90000))
		var (
			ls    *topology.LinkSet
			ds    []Demand
			theta float64
		)
		switch seed % 3 {
		case 0:
			ls, ds, theta = randomCase(rng)
		case 1:
			ls, ds, theta = randomWideCase(rng)
		default:
			ls, ds, theta = randomQuadCase(rng)
		}
		sameResult(t, seed, greedyReference(ls, theta, ds), al.Greedy(ls, theta, ds))
	}
	st := &al.stat
	cold := st.claim - st.claimFast - st.claimRepair - st.claimResume
	t.Logf("claim stats: calls=%d fast=%d repair=%d resume=%d cold=%d",
		st.claim, st.claimFast, st.claimRepair, st.claimResume, cold)
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"chain fast-path answers", st.claimFast},
		{"subtree repairs", st.claimRepair},
		{"tree extensions", st.claimResume},
		{"cold builds", cold},
	} {
		if c.n == 0 {
			t.Errorf("no %s across the run — the path was never exercised", c.name)
		}
	}
}

// TestClaimReuseMatchesReference anchors the reuse path against the
// map-based reference on the narrow single-word engine, where randomCase's
// tiny dense graphs produce the most takes per tree and therefore the most
// repair churn per claim.
func TestClaimReuseMatchesReference(t *testing.T) {
	al := NewAllocator()
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed + 91000))
		ls, ds, theta := randomCase(rng)
		sameResult(t, seed, greedyReference(ls, theta, ds), al.Greedy(ls, theta, ds))
	}
	if al.stat.claimFast == 0 {
		t.Error("no chain fast-path answers across the narrow run")
	}
}

// claimRepairCase is the benchmark fixture: a 200-site spine with chords and
// a hot demand set drawn from a small endpoint pool, so successive claims
// share sources (one repaired tree serves many demands), saturate edges
// mid-run (forcing repairs rather than pure fast-path walks), on four-word
// rows.
func claimRepairCase() (*topology.LinkSet, []Demand) {
	ls := topology.NewLinkSet(200)
	for i := 0; i+1 < ls.N; i++ {
		ls.Add(i, i+1, 3)
	}
	for i := 0; i+23 < ls.N; i += 11 {
		ls.Add(i, i+23, 1)
	}
	rng := rand.New(rand.NewSource(17))
	pool := []int{0, 1, 2, 3}
	var ds []Demand
	for i := 0; i < 400; i++ {
		s, d := pool[rng.Intn(len(pool))], 20+rng.Intn(ls.N-20)
		if s == d {
			continue
		}
		ds = append(ds, Demand{ID: i, Src: s, Dst: d, RateGbps: 40 + rng.Float64()*80})
	}
	return ls, ds
}

// BenchmarkClaimRepair measures the steady-state greedy allocation on the
// claim-repair fixture: saturations repair the claiming tree in place and
// same-source demands share it.
func BenchmarkClaimRepair(b *testing.B) {
	ls, ds := claimRepairCase()
	al := NewAllocator()
	al.Throughput(ls, 10, ds) // warm buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Throughput(ls, 10, ds)
	}
}
