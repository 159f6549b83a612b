package graph

import (
	"math/rand"
	"testing"
)

// maskCase draws a random reachability relation over n vertices in multi-word
// bitset form plus a random vertex mask and node-weight vector.
func maskCase(rng *rand.Rand, n int) (reach []uint64, words int, nodeMask []uint64, w []float64) {
	words = (n + 63) / 64
	reach = make([]uint64, n*words)
	nodeMask = make([]uint64, words)
	w = make([]float64, n)
	for v := 0; v < n; v++ {
		w[v] = rng.Float64() * 10
		if rng.Float64() < 0.8 {
			nodeMask[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < 0.15 {
				reach[u*words+v>>6] |= 1 << (uint(v) & 63)
			}
		}
	}
	return reach, words, nodeMask, w
}

// materializedShortest builds the transit graph the mask Dijkstra avoids —
// directed edges u->v with head-node weight for every reachable pair inside
// the mask, neighbors in ascending id order — and runs ShortestPathScratch,
// returning the vertex sequence. This is the reference the optical layer's
// slow path uses, so agreement here is agreement with findRegenRoute's
// materialized branch.
func materializedShortest(sc *Scratch, g *Graph, reach []uint64, words int, nodeMask []uint64, w []float64, src, dst int) ([]int, bool) {
	n := len(reach) / words
	g.Reset(n)
	id := 0
	for u := 0; u < n; u++ {
		if nodeMask[u>>6]>>(uint(u)&63)&1 == 0 {
			continue
		}
		for v := 0; v < n; v++ {
			if v == u || nodeMask[v>>6]>>(uint(v)&63)&1 == 0 {
				continue
			}
			if reach[u*words+v>>6]>>(uint(v)&63)&1 == 1 {
				g.AddEdge(u, v, w[v], id)
				id++
			}
		}
	}
	p := g.ShortestPathScratch(sc, src, dst)
	if p == nil {
		return nil, false
	}
	hops := []int{src}
	for _, e := range p.Edges {
		hops = append(hops, e.To)
	}
	return hops, true
}

// TestMaskShortestWMatchesMaterialized is the mask Dijkstra differential:
// across sizes inside one word and on both sides of the word boundaries the
// mask search must return exactly the path the materialized transit graph
// does.
func TestMaskShortestWMatchesMaterialized(t *testing.T) {
	var sc, scRef Scratch
	g := New(0)
	for _, n := range []int{5, 40, 63, 64, 65, 100, 128, 130} {
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			reach, words, nodeMask, w := maskCase(rng, n)
			for q := 0; q < 8; q++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				if src == dst || nodeMask[src>>6]>>(uint(src)&63)&1 == 0 ||
					nodeMask[dst>>6]>>(uint(dst)&63)&1 == 0 {
					continue
				}
				want, wok := materializedShortest(&scRef, g, reach, words, nodeMask, w, src, dst)
				got, gok := MaskShortestNodeWeightedW(&sc, reach, words, nodeMask, w, src, dst, nil)
				if wok != gok {
					t.Fatalf("n=%d seed %d (%d,%d): reachable %v, reference %v", n, seed, src, dst, gok, wok)
				}
				if !gok {
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("n=%d seed %d (%d,%d): hops %v, reference %v", n, seed, src, dst, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d seed %d (%d,%d): hops %v, reference %v", n, seed, src, dst, got, want)
					}
				}
			}
		}
	}
}
