package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// enumeratePaths lists every loopless path src->dst by DFS (small graphs
// only), returning total weights sorted ascending.
func enumeratePaths(g *Graph, src, dst int) []float64 {
	var weights []float64
	visited := make([]bool, g.N())
	var dfs func(v int, w float64)
	dfs = func(v int, w float64) {
		if v == dst {
			weights = append(weights, w)
			return
		}
		visited[v] = true
		for _, e := range g.adj[v] {
			if !visited[e.To] {
				dfs(e.To, w+e.Weight)
			}
		}
		visited[v] = false
	}
	dfs(src, 0)
	sort.Float64s(weights)
	return weights
}

// TestYenMatchesBruteForce verifies that KShortestPaths returns exactly the
// k smallest loopless path weights.
func TestYenMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4) // small enough for exhaustive enumeration
		g := New(n)
		id := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.55 {
					g.AddUndirected(i, j, 1+rng.Float64()*9, id)
					id++
				}
			}
		}
		src, dst := 0, n-1
		want := enumeratePaths(g, src, dst)
		const k = 5
		got := g.KShortestPaths(src, dst, k)
		limit := k
		if len(want) < limit {
			limit = len(want)
		}
		if len(got) != limit {
			return false
		}
		for i := 0; i < limit; i++ {
			if math.Abs(got[i].Weight-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestYenPathsAreLoopless double-checks the looplessness invariant on
// larger random graphs where brute force is impractical.
func TestYenPathsAreLoopless(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		g := New(n)
		id := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.AddUndirected(i, j, 1+rng.Float64()*5, id)
					id++
				}
			}
		}
		for _, p := range g.KShortestPaths(0, n-1, 6) {
			seen := map[int]bool{}
			for _, v := range p.Vertices() {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
			// Weight must equal the sum of edge weights.
			sum := 0.0
			for _, e := range p.Edges {
				sum += e.Weight
			}
			if math.Abs(sum-p.Weight) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
