package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddUndirected(i, (i+1)%n, 1, i)
	}
	return g
}

func TestShortestPathLine(t *testing.T) {
	g := New(4)
	g.AddUndirected(0, 1, 1, 0)
	g.AddUndirected(1, 2, 2, 1)
	g.AddUndirected(2, 3, 3, 2)
	p := g.ShortestPath(0, 3)
	if p == nil {
		t.Fatal("no path found")
	}
	if p.Weight != 6 {
		t.Errorf("weight = %v, want 6", p.Weight)
	}
	if got := p.Vertices(); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Errorf("vertices = %v", got)
	}
}

func TestShortestPathPrefersLighter(t *testing.T) {
	g := New(3)
	g.AddUndirected(0, 2, 10, 0)
	g.AddUndirected(0, 1, 1, 1)
	g.AddUndirected(1, 2, 1, 2)
	p := g.ShortestPath(0, 2)
	if p.Weight != 2 {
		t.Errorf("weight = %v, want 2 (via middle vertex)", p.Weight)
	}
	if len(p.Edges) != 2 {
		t.Errorf("len = %d, want 2", len(p.Edges))
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddUndirected(0, 1, 1, 0)
	if p := g.ShortestPath(0, 2); p != nil {
		t.Errorf("expected nil path, got %v", p)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := ring(5)
	p := g.ShortestPath(2, 2)
	if p == nil || p.Weight != 0 || len(p.Edges) != 0 {
		t.Errorf("self path = %+v, want empty zero-weight path", p)
	}
}

func TestShortestDistancesRing(t *testing.T) {
	g := ring(6)
	d := g.ShortestDistances(0)
	want := []float64{0, 1, 2, 3, 2, 1}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("d[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestBFSAndConnected(t *testing.T) {
	g := ring(5)
	d := g.BFS(0)
	if d[2] != 2 || d[4] != 1 {
		t.Errorf("bfs = %v", d)
	}
	if !g.Connected() {
		t.Error("ring should be connected")
	}
	g2 := New(4)
	g2.AddUndirected(0, 1, 1, 0)
	g2.AddUndirected(2, 3, 1, 1)
	if g2.Connected() {
		t.Error("disjoint pairs should not be connected")
	}
}

func TestMultiEdgeShortest(t *testing.T) {
	g := New(2)
	g.AddUndirected(0, 1, 5, 0)
	g.AddUndirected(0, 1, 2, 1)
	p := g.ShortestPath(0, 1)
	if p.Weight != 2 || p.Edges[0].ID != 1 {
		t.Errorf("should take the lighter parallel edge, got %+v", p)
	}
}

func TestKShortestPathsSquare(t *testing.T) {
	// Square: 0-1-3 (len 2) and 0-2-3 (len 2) and direct 0-3 (len 3).
	g := New(4)
	g.AddUndirected(0, 1, 1, 0)
	g.AddUndirected(1, 3, 1, 1)
	g.AddUndirected(0, 2, 1, 2)
	g.AddUndirected(2, 3, 1, 3)
	g.AddUndirected(0, 3, 3, 4)
	ps := g.KShortestPaths(0, 3, 3)
	if len(ps) != 3 {
		t.Fatalf("got %d paths, want 3", len(ps))
	}
	if ps[0].Weight != 2 || ps[1].Weight != 2 || ps[2].Weight != 3 {
		t.Errorf("weights = %v %v %v, want 2 2 3", ps[0].Weight, ps[1].Weight, ps[2].Weight)
	}
	// Paths must be distinct and loopless.
	seen := map[string]bool{}
	for _, p := range ps {
		vs := p.Vertices()
		visited := map[int]bool{}
		for _, v := range vs {
			if visited[v] {
				t.Errorf("path %v has a loop", vs)
			}
			visited[v] = true
		}
		key := ""
		for _, v := range vs {
			key += string(rune('a' + v))
		}
		if seen[key] {
			t.Errorf("duplicate path %v", vs)
		}
		seen[key] = true
	}
}

func TestKShortestFewerThanK(t *testing.T) {
	g := New(3)
	g.AddUndirected(0, 1, 1, 0)
	g.AddUndirected(1, 2, 1, 1)
	ps := g.KShortestPaths(0, 2, 5)
	if len(ps) != 1 {
		t.Errorf("got %d paths, want 1 (only one loopless path exists)", len(ps))
	}
}

func TestKShortestOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(12)
	id := 0
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			if rng.Float64() < 0.4 {
				g.AddUndirected(i, j, 1+rng.Float64()*9, id)
				id++
			}
		}
	}
	ps := g.KShortestPaths(0, 11, 8)
	for i := 1; i < len(ps); i++ {
		if ps[i].Weight < ps[i-1].Weight-1e-9 {
			t.Errorf("paths out of order: %v then %v", ps[i-1].Weight, ps[i].Weight)
		}
	}
}

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		id := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.25 {
					g.AddUndirected(i, j, 1, id)
					id++
				}
			}
		}
		d := g.ShortestDistances(0)
		b := g.BFS(0)
		for v := 0; v < n; v++ {
			if b[v] < 0 {
				if !math.IsInf(d[v], 1) {
					return false
				}
				continue
			}
			if d[v] != float64(b[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPathVerticesNilSafety(t *testing.T) {
	var p *Path
	if p.Vertices() != nil {
		t.Error("nil path should have nil vertices")
	}
	empty := &Path{}
	if empty.Vertices() != nil {
		t.Error("empty path should have nil vertices")
	}
}
