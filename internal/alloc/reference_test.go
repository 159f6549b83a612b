package alloc

import (
	"math"

	"owan/internal/topology"
	"owan/internal/transfer"
)

// This file preserves the original map-based greedy implementation as an
// executable specification. The exported Greedy/GreedySequential/Throughput
// run on the flat, index-addressed Allocator; the differential tests in
// differential_test.go assert that the two produce bit-identical results
// (same throughput, same per-demand path/rate lists) on randomized
// topologies and demand sets. As a _test.go file it is compiled into the
// package's tests only, never into production builds.

// residualNet is a mutable capacity view of a network-layer topology, keyed
// by canonical (min,max) site pairs.
type residualNet struct {
	n   int
	cap map[[2]int]float64
	adj [][]int // per-site neighbor lists, fixed at construction; saturated
	// links stay listed and are skipped by the positive-residual check in
	// shortestResidual.
}

func key(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func newResidual(ls *topology.LinkSet, theta float64) *residualNet {
	links := ls.Links()
	r := &residualNet{n: ls.N, cap: make(map[[2]int]float64, len(links)), adj: make([][]int, ls.N)}
	for _, l := range links {
		r.cap[key(l.U, l.V)] = float64(l.Count) * theta
		r.adj[l.U] = append(r.adj[l.U], l.V)
		r.adj[l.V] = append(r.adj[l.V], l.U)
	}
	return r
}

// shortestResidual returns the minimum-hop path from src to dst using only
// links with positive residual capacity, or nil.
func (r *residualNet) shortestResidual(src, dst int, prev, distBuf []int) []int {
	const eps = 1e-9
	for i := range distBuf {
		distBuf[i] = -1
		prev[i] = -1
	}
	distBuf[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == dst {
			break
		}
		for _, w := range r.adj[v] {
			if distBuf[w] >= 0 || r.cap[key(v, w)] <= eps {
				continue
			}
			distBuf[w] = distBuf[v] + 1
			prev[w] = v
			queue = append(queue, w)
		}
	}
	if distBuf[dst] < 0 {
		return nil
	}
	path := make([]int, 0, distBuf[dst]+1)
	for v := dst; v != -1; v = prev[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// bottleneck returns the minimum residual along a path.
func (r *residualNet) bottleneck(path []int) float64 {
	b := math.Inf(1)
	for i := 0; i+1 < len(path); i++ {
		if c := r.cap[key(path[i], path[i+1])]; c < b {
			b = c
		}
	}
	return b
}

// take subtracts rate from every link of the path.
func (r *residualNet) take(path []int, rate float64) {
	for i := 0; i+1 < len(path); i++ {
		r.cap[key(path[i], path[i+1])] -= rate
	}
}

// greedyReference is the original map-based Greedy (Algorithm 3 with the
// path-length tier loop); see Greedy for the algorithm description.
func greedyReference(ls *topology.LinkSet, theta float64, demands []Demand) *Result {
	const eps = 1e-9
	r := newResidual(ls, theta)
	res := &Result{Alloc: make(map[int][]transfer.PathRate, len(demands))}
	unmet := make([]float64, len(demands))
	for i, d := range demands {
		unmet[i] = d.RateGbps
	}
	// nextTier[i]: minimal path length currently available for demand i;
	// math.MaxInt once unroutable (capacity only shrinks within a run).
	nextTier := make([]int, len(demands))
	for i := range nextTier {
		nextTier[i] = 1
	}
	prev := make([]int, ls.N)
	dist := make([]int, ls.N)

	for l := 1; l <= ls.N; l++ {
		anyUnmet := false
		for i := range demands {
			d := &demands[i]
			if unmet[i] <= eps || nextTier[i] > l {
				if unmet[i] > eps && nextTier[i] <= ls.N {
					anyUnmet = true
				}
				continue
			}
			for unmet[i] > eps {
				p := r.shortestResidual(d.Src, d.Dst, prev, dist)
				if p == nil {
					nextTier[i] = math.MaxInt
					break
				}
				if hops := len(p) - 1; hops > l {
					nextTier[i] = hops
					anyUnmet = true
					break
				}
				rate := math.Min(unmet[i], r.bottleneck(p))
				if rate <= eps {
					nextTier[i] = math.MaxInt
					break
				}
				r.take(p, rate)
				unmet[i] -= rate
				res.Alloc[d.ID] = append(res.Alloc[d.ID], transfer.PathRate{Path: p, Rate: rate})
				res.Throughput += rate
			}
		}
		if !anyUnmet {
			break
		}
	}
	return res
}

// greedySequentialReference is the original map-based GreedySequential (the
// no-tier ablation variant); see GreedySequential.
func greedySequentialReference(ls *topology.LinkSet, theta float64, demands []Demand) *Result {
	const eps = 1e-9
	r := newResidual(ls, theta)
	res := &Result{Alloc: make(map[int][]transfer.PathRate, len(demands))}
	prev := make([]int, ls.N)
	dist := make([]int, ls.N)
	for i := range demands {
		d := &demands[i]
		unmet := d.RateGbps
		for unmet > eps {
			p := r.shortestResidual(d.Src, d.Dst, prev, dist)
			if p == nil {
				break
			}
			rate := math.Min(unmet, r.bottleneck(p))
			if rate <= eps {
				break
			}
			r.take(p, rate)
			unmet -= rate
			res.Alloc[d.ID] = append(res.Alloc[d.ID], transfer.PathRate{Path: p, Rate: rate})
			res.Throughput += rate
		}
	}
	return res
}
