package graph

import (
	"math/rand"
	"testing"
)

func randomGraph(rng *rand.Rand) *Graph {
	n := 3 + rng.Intn(10)
	g := New(n)
	id := 0
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < 0.35 {
				g.AddEdge(u, v, 1+rng.Float64()*100, id)
				id++
			}
		}
	}
	return g
}

func samePath(a, b *Path) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Weight != b.Weight || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}

// TestScratchVariantsMatch asserts the scratch-buffer shortest-path routines
// return exactly what the allocating ones do, across random graphs with one
// Scratch reused throughout (including across graph sizes).
func TestScratchVariantsMatch(t *testing.T) {
	var sc Scratch
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		for q := 0; q < 6; q++ {
			src, dst := rng.Intn(g.n), rng.Intn(g.n)
			want := g.ShortestPath(src, dst)
			got := g.ShortestPathScratch(&sc, src, dst)
			if !samePath(want, got) {
				t.Fatalf("seed %d: ShortestPathScratch(%d,%d) diverged", seed, src, dst)
			}
			k := 1 + rng.Intn(4)
			wantK := g.KShortestPaths(src, dst, k)
			gotK := g.KShortestPathsScratch(&sc, src, dst, k)
			if len(wantK) != len(gotK) {
				t.Fatalf("seed %d: KShortestPathsScratch(%d,%d,%d): %d paths, want %d",
					seed, src, dst, k, len(gotK), len(wantK))
			}
			for i := range wantK {
				if !samePath(wantK[i], gotK[i]) {
					t.Fatalf("seed %d: KShortestPathsScratch(%d,%d,%d): path %d diverged", seed, src, dst, k, i)
				}
			}
		}
	}
}

// TestGraphResetReusesRows asserts Reset keeps adjacency backing arrays and
// clears edges, including when shrinking and regrowing.
func TestGraphResetReusesRows(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 2, 1, 1)
	g.Reset(2)
	if g.n != 2 {
		t.Fatalf("n = %d after Reset(2)", g.n)
	}
	if p := g.ShortestPath(0, 1); p != nil {
		t.Fatal("edges survived Reset")
	}
	g.AddEdge(0, 1, 5, 7)
	if p := g.ShortestPath(0, 1); p == nil || p.Weight != 5 {
		t.Fatalf("graph unusable after Reset: %+v", p)
	}
	g.Reset(6) // regrow past the original size
	g.AddEdge(4, 5, 2, 9)
	if p := g.ShortestPath(4, 5); p == nil || p.Weight != 2 {
		t.Fatalf("graph unusable after regrow: %+v", p)
	}
}

// TestTreeArcMatchesShortestPath asserts that following Tree.Arc back from a
// vertex yields exactly ShortestPath's edges, and that Arc reports no arc at
// the source and at an unreachable vertex, across random graphs with one Tree
// reused throughout.
func TestTreeArcMatchesShortestPath(t *testing.T) {
	var tree Tree
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		src := rng.Intn(g.n)
		g.ShortestTree(&tree, src)
		for dst := 0; dst < g.n; dst++ {
			var got []Edge
			for v := dst; ; {
				e, ok := tree.Arc(v)
				if !ok {
					break
				}
				got = append(got, e)
				v = e.From
			}
			reverse(got)
			want := g.ShortestPath(src, dst)
			if dst == src || want == nil {
				if got != nil {
					t.Fatalf("seed %d: Arc walk %d->%d found %v, want none", seed, src, dst, got)
				}
				continue
			}
			if !samePath(want, &Path{Edges: got, Weight: want.Weight}) {
				t.Fatalf("seed %d: Arc walk %d->%d = %v, ShortestPath %v", seed, src, dst, got, want.Edges)
			}
		}
	}
}
