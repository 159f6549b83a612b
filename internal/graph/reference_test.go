package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The k-shortest-path kernel as it stood before it moved onto the Scratch
// arena: one *Path per spur, Path.Vertices per iteration, pointer-slice
// candidates re-sorted with sort.SliceStable, every spur index searched. It
// is the reference the differentials below (and the optical route-table
// differential, through its own retained builder) hold KShortest to, bit for
// bit, tie order included.

func refShortestPath(g *Graph, src, dst int, removed []bool, banned [][3]int) *Path {
	dist := make([]float64, g.n)
	prev := make([]Edge, g.n)
	seen := make([]bool, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = Edge{From: -1}
	}
	dist[src] = 0
	h := heap{}
	h.push(item{src, 0})
	for len(h) > 0 {
		it := h.pop()
		if seen[it.v] {
			continue
		}
		seen[it.v] = true
		if it.v == dst {
			break
		}
		for _, e := range g.adj[it.v] {
			if removed != nil && (removed[e.To] || refBanned(banned, e)) {
				continue
			}
			if nd := dist[it.v] + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = e
				h.push(item{e.To, nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil
	}
	var edges []Edge
	for v := dst; v != src; v = prev[v].From {
		edges = append(edges, prev[v])
	}
	reverse(edges)
	return &Path{Edges: edges, Weight: dist[dst]}
}

func refBanned(banned [][3]int, e Edge) bool {
	for _, b := range banned {
		if b[0] == e.From && b[1] == e.To && b[2] == e.ID {
			return true
		}
	}
	return false
}

func refKShortestPaths(g *Graph, src, dst, k int) []*Path {
	if k <= 0 {
		return nil
	}
	first := refShortestPath(g, src, dst, nil, nil)
	if first == nil {
		return nil
	}
	removed := make([]bool, g.n)
	result := []*Path{first}
	var candidates []*Path
	for len(result) < k {
		prevPath := result[len(result)-1]
		prevVerts := prevPath.Vertices()
		for i := 0; i < len(prevPath.Edges); i++ {
			spurNode := prevVerts[i]
			rootEdges := prevPath.Edges[:i]
			var banned [][3]int
			for _, p := range result {
				if refHasPrefix(p, rootEdges) && len(p.Edges) > i {
					e := p.Edges[i]
					banned = append(banned, [3]int{e.From, e.To, e.ID})
				}
			}
			for _, v := range prevVerts[:i] {
				removed[v] = true
			}
			spur := refShortestPath(g, spurNode, dst, removed, banned)
			for _, v := range prevVerts[:i] {
				removed[v] = false
			}
			if spur == nil {
				continue
			}
			var total []Edge
			total = append(total, rootEdges...)
			total = append(total, spur.Edges...)
			w := spur.Weight
			for _, e := range rootEdges {
				w += e.Weight
			}
			cand := &Path{Edges: total, Weight: w}
			if !refContains(candidates, cand) && !refContains(result, cand) {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool {
			return candidates[a].Weight < candidates[b].Weight
		})
		result = append(result, candidates[0])
		candidates = candidates[1:]
	}
	return result
}

func refHasPrefix(p *Path, prefix []Edge) bool {
	if len(p.Edges) < len(prefix) {
		return false
	}
	for i, e := range prefix {
		o := p.Edges[i]
		if o.From != e.From || o.To != e.To || o.ID != e.ID {
			return false
		}
	}
	return true
}

func refContains(ps []*Path, q *Path) bool {
	for _, p := range ps {
		if len(p.Edges) != len(q.Edges) {
			continue
		}
		same := true
		for i := range p.Edges {
			if p.Edges[i] != q.Edges[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// tieGraphs are the shapes random weights never produce: every weight equal
// (a grid), parallel edges, and a mix of one repeated weight with random
// ones, where equal-length paths abound and only the order of discovery
// separates them.
func tieGraphs(rng *rand.Rand) []*Graph {
	const w, h = 5, 4
	grid := New(w * h)
	id := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				grid.AddUndirected(y*w+x, y*w+x+1, 50, id)
				id++
			}
			if y+1 < h {
				grid.AddUndirected(y*w+x, (y+1)*w+x, 50, id)
				id++
			}
		}
	}
	par := New(6)
	id = 0
	for v := 0; v+1 < 6; v++ {
		for c := 0; c < 3; c++ {
			par.AddUndirected(v, v+1, 10, id)
			id++
		}
	}
	par.AddUndirected(0, 5, 50, id)
	mixed := New(12)
	id = 0
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			if rng.Float64() < 0.4 {
				km := 50.0
				if rng.Intn(2) == 0 {
					km = 50 + rng.Float64()*400
				}
				mixed.AddUndirected(u, v, km, id)
				id++
			}
		}
	}
	return []*Graph{grid, par, mixed}
}

func sameKernelAnswer(t *testing.T, sc *Scratch, n int, want []*Path, where string) {
	t.Helper()
	if n != len(want) {
		t.Fatalf("%s: %d paths, reference has %d", where, n, len(want))
	}
	for i, p := range want {
		got := &Path{Edges: sc.PathEdges(i), Weight: sc.PathWeight(i)}
		if !samePath(p, got) {
			t.Fatalf("%s: path %d diverged from the reference:\n got %v\nwant %v", where, i, got, p)
		}
	}
}

// TestKShortestDifferential holds the arena kernel — searched and
// tree-seeded — to the retained reference on random directed multigraphs and
// on the tie fixtures, for k up to 7 (past k = 3 Lawler's skip has to notice
// fresh bans), with one Scratch and one Tree reused throughout.
func TestKShortestDifferential(t *testing.T) {
	var sc Scratch
	var tree Tree
	tiedSeen := 0
	check := func(g *Graph, rng *rand.Rand, queries int, where string) {
		for q := 0; q < queries; q++ {
			src, dst, k := rng.Intn(g.n), rng.Intn(g.n), 1+rng.Intn(7)
			want := refKShortestPaths(g, src, dst, k)
			sameKernelAnswer(t, &sc, g.KShortest(&sc, src, dst, k), want, where)
			tied := sc.PathsTied()
			g.ShortestTree(&tree, src)
			sameKernelAnswer(t, &sc, g.KShortestFrom(&sc, &tree, dst, k, math.Inf(1)), want, where+" (from tree)")
			if sc.PathsTied() != tied {
				t.Fatalf("%s: %d->%d k=%d: tied %v searched, %v from the tree", where, src, dst, k, tied, sc.PathsTied())
			}
			if tied {
				tiedSeen++
			}
			if d := tree.Dist(dst); len(want) > 0 && d != want[0].Weight || len(want) == 0 && !math.IsInf(d, 1) {
				t.Fatalf("%s: tree distance %d->%d = %v", where, src, dst, d)
			}
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check(randomGraph(rng), rng, 8, "random graph")
	}
	if tiedSeen != 0 {
		t.Errorf("random real weights reported %d tied queries", tiedSeen)
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, g := range tieGraphs(rng) {
			check(g, rng, 40, "tie fixture")
		}
	}
	if tiedSeen == 0 {
		t.Error("no query on the tie fixtures reported a tie: the flag is vacuous")
	}
}

// withoutEdge copies g less every arc with the given id — both directions of
// an undirected edge, as a fiber cut removes them — keeping the rest in their
// order, which is the order ties are broken in.
func withoutEdge(g *Graph, id int) *Graph {
	h := New(g.n)
	for _, out := range g.adj {
		for _, e := range out {
			if e.ID != id {
				h.AddEdge(e.From, e.To, e.Weight, e.ID)
			}
		}
	}
	return h
}

// TestKShortestBoundedDifferential holds the bounded tree-seeded kernel to
// the unbounded reference: the first path always, then the reference's
// paths in its order up to the first one heavier than the bound — for k up to
// 7 and bounds below the first path, exactly at a path's weight (ties at the
// bound, with several equal paths on the tie fixtures), one ulp under it,
// between the lightest and heaviest, and +Inf. Its tie flag may only be
// narrower than the unbounded query's (equal at +Inf), and it must still be
// sound for what was returned: an untied bounded answer is the answer again
// once any edge none of its paths uses is deleted — the assumption the optical
// repair index rests on.
func TestKShortestBoundedDifferential(t *testing.T) {
	var sc Scratch
	var tree, cutTree Tree
	cutsChecked := 0
	check := func(g *Graph, rng *rand.Rand, queries int, where string) {
		for q := 0; q < queries; q++ {
			src, dst, k := rng.Intn(g.n), rng.Intn(g.n), 1+rng.Intn(7)
			want := refKShortestPaths(g, src, dst, k)
			g.ShortestTree(&tree, src)
			g.KShortestFrom(&sc, &tree, dst, k, math.Inf(1))
			unboundedTied := sc.PathsTied()
			bounds := []float64{math.Inf(1)}
			if len(want) > 0 {
				w := want[rng.Intn(len(want))].Weight
				bounds = append(bounds, w, math.Nextafter(w, math.Inf(-1)), want[0].Weight-1,
					(want[0].Weight+want[len(want)-1].Weight)/2)
			}
			for _, bound := range bounds {
				n := min(1, len(want))
				for n < len(want) && want[n].Weight <= bound {
					n++
				}
				at := fmt.Sprintf("%s: %d->%d k=%d bound %v", where, src, dst, k, bound)
				sameKernelAnswer(t, &sc, g.KShortestFrom(&sc, &tree, dst, k, bound), want[:n], at)
				tied := sc.PathsTied()
				if tied && !unboundedTied || math.IsInf(bound, 1) && tied != unboundedTied {
					t.Fatalf("%s: tied %v, unbounded query tied %v", at, tied, unboundedTied)
				}
				if tied || n == 0 {
					continue
				}
				used := map[int]bool{}
				for _, p := range want[:n] {
					for _, e := range p.Edges {
						used[e.ID] = true
					}
				}
				for tries := 0; tries < 3; tries++ {
					out := g.adj[rng.Intn(g.n)]
					if len(out) == 0 {
						continue
					}
					id := out[rng.Intn(len(out))].ID
					if used[id] {
						continue
					}
					h := withoutEdge(g, id)
					h.ShortestTree(&cutTree, src)
					sameKernelAnswer(t, &sc, h.KShortestFrom(&sc, &cutTree, dst, k, bound), want[:n],
						fmt.Sprintf("%s, less edge %d", at, id))
					cutsChecked++
				}
			}
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check(randomGraph(rng), rng, 8, "random graph")
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, g := range tieGraphs(rng) {
			check(g, rng, 40, "tie fixture")
		}
	}
	if cutsChecked == 0 {
		t.Error("no untied answer was checked against an edge deletion")
	}
}

// TestKShortestAllocationFree pins the kernel's steady state: once the
// scratch has grown, a query allocates nothing, searched or tree-seeded.
func TestKShortestAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New(60)
	for u := 0; u < 60; u++ {
		for _, v := range rng.Perm(60)[:4] {
			if u != v {
				g.AddUndirected(u, v, 50+rng.Float64()*900, u*60+v)
			}
		}
	}
	var sc Scratch
	var tree Tree
	g.ShortestTree(&tree, 0)
	query := func() {
		for dst := 1; dst < 60; dst++ {
			if g.KShortest(&sc, 0, dst, 3) == 0 || g.KShortestFrom(&sc, &tree, dst, 3, math.Inf(1)) == 0 {
				t.Fatalf("no path 0->%d", dst)
			}
		}
		g.ShortestTree(&tree, 0)
	}
	query() // grow the buffers
	if n := testing.AllocsPerRun(10, query); n != 0 {
		t.Errorf("%v allocations per sweep of 118 k-shortest queries, want 0", n)
	}
}
