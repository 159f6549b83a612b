package sim

import (
	"math/rand"
	"testing"

	"owan/internal/topology"
	"owan/internal/transfer"
)

// mapChangedLinks is the map-based reference the merge-diff replaced: the
// set of canonical pairs whose circuit counts differ between two topologies,
// read through each LinkSet's map index (Get).
func mapChangedLinks(a, b *topology.LinkSet) map[[2]int]bool {
	out := map[[2]int]bool{}
	for _, ls := range []*topology.LinkSet{a, b} {
		for _, l := range ls.Links() {
			if a.Get(l.U, l.V) != b.Get(l.U, l.V) {
				out[[2]int{l.U, l.V}] = true
			}
		}
	}
	return out
}

// TestChangedPairsMatchesMapDiff pins the sorted merge-diff to the map
// reference across random topology pairs, including the derived-by-swaps
// shape the simulator actually sees.
func TestChangedPairsMatchesMapDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var la, lb []topology.Link
	var pairs [][2]int
	for trial := 0; trial < 500; trial++ {
		n := 4 + rng.Intn(12)
		a := topology.NewLinkSet(n)
		for i := 0; i < rng.Intn(3*n); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				a.Add(u, v, 1+rng.Intn(3))
			}
		}
		b := a.Clone()
		// Perturb: some removals of existing capacity, some additions.
		for _, l := range a.Links() {
			if rng.Intn(3) == 0 {
				b.Add(l.U, l.V, -l.Count) // drop the pair entirely
			} else if rng.Intn(3) == 0 {
				b.Add(l.U, l.V, 1)
			}
		}
		for i := 0; i < rng.Intn(5); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.Add(u, v, 1)
			}
		}

		want := mapChangedLinks(a, b)
		la = a.AppendLinks(la[:0])
		lb = b.AppendLinks(lb[:0])
		pairs = changedPairs(pairs[:0], la, lb)

		if len(pairs) != len(want) {
			t.Fatalf("trial %d: %d changed pairs, reference has %d", trial, len(pairs), len(want))
		}
		for i, p := range pairs {
			if !want[p] {
				t.Fatalf("trial %d: pair %v not in reference diff", trial, p)
			}
			if i > 0 && !(pairs[i-1][0] < p[0] || (pairs[i-1][0] == p[0] && pairs[i-1][1] < p[1])) {
				t.Fatalf("trial %d: pairs not strictly sorted at %d: %v", trial, i, pairs)
			}
		}
		// containsPair must agree with the map on every candidate pair.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if containsPair(pairs, u, v) != want[[2]int{u, v}] {
					t.Fatalf("trial %d: containsPair(%d,%d) disagrees with reference", trial, u, v)
				}
			}
		}
	}
}

// TestCrossesChangedBinarySearch spot-checks the path scan against the pair
// list: a path touches the diff iff one of its hops is a changed pair, in
// either direction.
func TestCrossesChangedBinarySearch(t *testing.T) {
	changed := [][2]int{{0, 1}, {2, 5}, {3, 4}}
	cases := []struct {
		path []int
		want bool
	}{
		{[]int{0, 1, 2}, true},
		{[]int{1, 0}, true},     // reversed hop canonicalizes
		{[]int{5, 2, 7}, true},  // middle pair, reversed
		{[]int{0, 2, 4}, false}, // shares endpoints with changed pairs, no hop
		{[]int{6, 7}, false},
		{nil, false},
	}
	for i, c := range cases {
		alloc := []transfer.PathRate{{Path: c.path, Rate: 1}}
		if got := crossesChanged(alloc, changed); got != c.want {
			t.Fatalf("case %d (%v): crossesChanged = %v, want %v", i, c.path, got, c.want)
		}
	}
	if crossesChanged([]transfer.PathRate{{Path: []int{0, 1}}}, nil) {
		t.Fatal("empty diff must never cross")
	}
}
