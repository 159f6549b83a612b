package alloc

import (
	"math"
	"math/bits"

	"owan/internal/bitset"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// resEps is the residual-capacity threshold below which an edge is treated
// as saturated. It must stay identical everywhere a residual is compared so
// the live-neighbor masks agree bit-for-bit with the capacities.
const resEps = 1e-9

// Allocator runs the greedy multi-path assignment on flat, edge-id-indexed
// arrays with reusable scratch, so that the annealing energy function —
// which evaluates thousands of candidate topologies per slot — performs
// zero heap allocations in steady state.
//
// Edge ids are minted per load from the LinkSet: edge e is the e-th link of
// the (U, V)-sorted enumeration (topology.LinkSet.AppendLinks), residual
// capacities live in a dense []float64 indexed by edge id, and adjacency is
// one live-neighbor bitset row per site (liveAdj). Searches reconstruct
// paths by walking the prevNode/prevEdge chains, so bottleneck and take
// never look up an edge by endpoint pair.
//
// Scratch ownership rules: an Allocator owns its buffers exclusively and is
// not safe for concurrent use. Each worker of the parallel annealing engine
// owns one Allocator, exactly as it owns one cloned optical.State. Buffers
// grow monotonically and are retained across calls; results returned by
// Greedy/GreedySequential copy every path out of the scratch, so they do
// not alias it.
//
// Results are bit-identical to the map-based reference implementation in
// reference_test.go: the reference lists each site's neighbors in
// (U, V)-sorted link order, which is ascending neighbor id (v's partners
// x<v, then y>v, both ascending), and every search here enumerates a
// neighbor row word-ascending, bit-ascending — the same order; the searches
// visit vertices in the same FIFO order, and rates are computed and
// subtracted in the same sequence, so every float operation sees the same
// operands.
type Allocator struct {
	n     int
	links []topology.Link // scratch for LinkSet.AppendLinks

	caps []float64 // residual capacity by edge id (per load)

	// BFS scratch, one row of n entries per source site (src-major, n*n).
	// Labels are generation-stamped: node w is labeled by src's latest
	// search iff stampDist[src*n+w]>>32 == rowGen[src], so starting a BFS is
	// O(1) instead of an O(n) re-initialization, and a finished search leaves
	// its whole distance tree in place for probe() to answer later queries
	// from the same source (valid until the next take) at zero recording
	// cost. Stamp+dist and prevEdge+prevNode are packed pairwise into int64
	// words (stamp and edge id high, dist and node low) so labeling a node is
	// two stores instead of four.
	stampDist []int64 // rowGen<<32 | hop count, per (src, node)
	prevNE    []int64 // prevEdge<<32 | prevNode, per (src, node)
	rowGen    []int32 // per src: gen of the latest search from src
	gen       int32

	// Per-demand scratch.
	unmet    []float64
	nextTier []int

	// Path materialization scratch (only used when recording allocations).
	path []int

	// Probe memo validity. Within one run residual capacities only
	// decrease, so edges leave the positive-residual graph and never return:
	// hop distances are non-decreasing over the run, and the tree a search
	// left in src's row yields a permanent LOWER BOUND on the current hop
	// count — no invalidation on take is needed, only per load (rows are
	// live iff rowGen[src] > loadGen). probeFull[src] records whether src's
	// latest search scanned its entire residual component (a failed search,
	// whose unlabeled nodes are then unreachable for the rest of the run) or
	// early-exited (unlabeled nodes merely unknown).
	probeFull []bool
	loadGen   int32

	// act is the tier loop's active-demand list (indices with unmet rate
	// and a reachable next tier), compacted in place each tier so the scan
	// cost tracks the number of live demands instead of all of them.
	act []int32

	// Bitset rows. Every row holds mw = bitset.Words(n) words in the
	// internal/bitset layout (one word when n <= 64). liveAdj row v holds
	// one bit per neighbor w reachable over an edge with positive residual;
	// take clears bits as edges saturate, so a search's inner loop is
	// `liveAdj[v] &^ visited`, and word-ascending, bit-ascending iteration
	// visits, labels, and enqueues in exactly the reference order — results
	// stay bit-identical, which the differential suites assert.
	// edgeOf[v*n+w] maps a live pair back to its edge id for the prev
	// chain; entries for non-adjacent pairs are never read, so the array
	// needs no clearing between loads.
	mw      int
	liveAdj []uint64 // n*mw
	edgeOf  []int32  // n*n

	// Failure cuts. Within one run residual capacities only decrease, so
	// the node set V a failed search visited is a saturated cut that stays
	// saturated: no member of V can reach a non-member for the rest of the
	// run. doomed row src is the union of ^V over every such V containing
	// src, so "some cut separates src from dst" is one bit test (cutHit).
	// Monotone unions make duplicate cuts free.
	doomed []uint64 // n*mw

	// Claim-tree store (see the claim-repair comment in engines.go).
	// claimSearch persists the canonical BFS tree it builds — labeling order
	// (cQueue), level boundaries (cEnds), labeled bitmap (cVis), last
	// complete level (cDepth) — per source, alongside the prev chains
	// already living in the per-source prevNE rows. A later claim from the
	// same source answers from the stored tree when dst's prev chain is
	// still fully live, repairs just the subtree below the shallowest
	// saturated tree edge when it is not, and resumes a truncated sweep
	// where it stopped when dst lies beyond the stored levels. cGen stamps
	// validity the same way rowGen does for the probe rows: a tree is live
	// iff cGen[src] > loadGen.
	cQueue []int32  // n*n: per-source canonical labeling order
	cEnds  []int32  // n*(n+1): per-source level boundaries, ends[d] = one past level d
	cDepth []int32  // per source: last complete level
	cVis   []uint64 // n*mw
	cGen   []int32

	// Resumable sweep rows (see engines.go): per-source visited and
	// frontier bitmaps (mw words each) plus the last completed level, so a
	// suspended stamp sweep picks up where it stopped instead of re-walking
	// the component. Validity rides on rowGen, like the stamps the sweep
	// writes. sNext is the sweep's next-level accumulator (mw words).
	sVis, sFront []uint64
	sLevel       []int32
	sNext        []uint64

	// Per-source frontier id list (resumeStamp): while a sweep's frontier
	// holds at most bSparse nodes, its members are listed in the source's
	// slot, so expanding it — now or after a suspension — enumerates the
	// list instead of sweeping the frontier bitmap's words. The list is part
	// of the resumable row: (re)starting a row resets it, like sVis.
	sFrIDs []int32 // n*bSparse: frontier ids
	sFrCnt []int32 // per source: listed frontier size, 0 = sweep the bitmap

	// stat counts engine events at call granularity (see engineStats); the
	// differential harnesses read it to prove the paths they force actually
	// fired. Cumulative across loads.
	stat engineStats
}

// NewAllocator returns an empty allocator; buffers are sized lazily on
// first use and reused afterwards.
func NewAllocator() *Allocator { return &Allocator{} }

func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func grow32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func grow64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

func growI(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// load rebuilds the flat residual network for a topology, reusing every
// buffer from the previous load.
func (a *Allocator) load(ls *topology.LinkSet, theta float64) {
	a.links = ls.AppendLinks(a.links[:0])
	a.loadFromLinks(ls.N, theta)
}

// loadFromLinks rebuilds the flat residual network from the (U, V)-sorted
// links already sitting in a.links.
func (a *Allocator) loadFromLinks(n int, theta float64) {
	m := len(a.links)
	mw := bitset.Words(n)
	a.n, a.mw = n, mw
	a.caps = growF(a.caps, m)
	a.stampDist = grow64(a.stampDist, n*n)
	a.prevNE = grow64(a.prevNE, n*n)
	a.rowGen = grow32(a.rowGen, n)
	// gen deliberately survives loads: stale stamps can never equal a gen
	// they have not seen, so rows need no clearing between topologies. The
	// wrap guard keeps that invariant over arbitrarily long lifetimes.
	if a.gen > math.MaxInt32/2 {
		clear(a.stampDist)
		clear(a.rowGen)
		clear(a.cGen)
		a.gen = 0
	}
	if cap(a.probeFull) < n {
		a.probeFull = make([]bool, n)
	}
	a.probeFull = a.probeFull[:n]
	// Every row of this load is stamped above loadGen. Advancing gen here
	// makes a claim tree built before any sweep of the load (the sequential
	// variant runs no sweep at all) live for the rest of the load.
	a.loadGen = a.gen
	a.gen++

	// Sweep and claim-tree rows need no clearing: rowGen and cGen gate
	// every read, and a stale stamp can never exceed the fresh loadGen.
	a.sVis = growU(a.sVis, n*mw)
	a.sFront = growU(a.sFront, n*mw)
	a.sLevel = grow32(a.sLevel, n)
	a.sNext = growU(a.sNext, mw)
	a.sFrIDs = grow32(a.sFrIDs, n*bSparse)
	a.sFrCnt = grow32(a.sFrCnt, n)
	a.cQueue = grow32(a.cQueue, n*n)
	a.cEnds = grow32(a.cEnds, n*(n+1))
	a.cDepth = grow32(a.cDepth, n)
	a.cVis = growU(a.cVis, n*mw)
	a.cGen = grow32(a.cGen, n)

	a.liveAdj = growU(a.liveAdj, n*mw)
	clear(a.liveAdj)
	a.doomed = growU(a.doomed, n*mw) // residuals are fresh: no cut holds yet
	clear(a.doomed)
	a.edgeOf = grow32(a.edgeOf, n*n)
	for e, l := range a.links {
		a.caps[e] = float64(l.Count) * theta
		if a.caps[e] > resEps {
			a.liveAdj[l.U*mw+l.V>>6] |= 1 << uint(l.V&63)
			a.liveAdj[l.V*mw+l.U>>6] |= 1 << uint(l.U&63)
			a.edgeOf[l.U*n+l.V] = int32(e)
			a.edgeOf[l.V*n+l.U] = int32(e)
		}
	}
}

// ThroughputLinks is Throughput for callers that already hold the (U, V)-
// sorted enumeration of the effective topology: identical result, without
// walking and sorting a LinkSet first.
func (a *Allocator) ThroughputLinks(n int, links []topology.Link, theta float64, demands []Demand) float64 {
	a.links = append(a.links[:0], links...)
	a.loadFromLinks(n, theta)
	return a.runLoaded(demands, true, nil)
}

func growU(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// cutHit reports whether a recorded failure cut already proves dst
// unreachable from src on the current residuals.
func (a *Allocator) cutHit(src, dst int) bool {
	return a.doomed[src*a.mw+dst>>6]>>uint(dst&63)&1 == 1
}

// doomCut folds a failed search's visited set into the doomed rows: every
// member of the cut cannot reach any non-member for the rest of the run.
// Bits at positions >= n in the last word get set too; they correspond to
// no node and are never tested.
func (a *Allocator) doomCut(visited []uint64) {
	mw := a.mw
	for wi, vw := range visited {
		base := wi << 6
		for m := vw; m != 0; m &= m - 1 {
			src := base + bits.TrailingZeros64(m)
			row := a.doomed[src*mw : src*mw+mw]
			for wj := range row {
				row[wj] |= ^visited[wj]
			}
		}
	}
}

// probe answers (src, dst) reachability questions from the tree src's
// latest search this load left in its row. Because residuals only decrease
// within a run, a labeled dst yields a permanent lower bound on the current
// hop count, and an unlabeled dst in a full component scan is unreachable
// for the rest of the run — both hold however stale the tree is. known is
// false when the row predates this load or dst lies beyond a truncated
// early-exit tree. probe never touches the prev chains, so callers may act
// on it only for decisions that do not claim a path, and may treat hops
// only as a lower bound.
func (a *Allocator) probe(src, dst int) (found bool, hops int, known bool) {
	if a.rowGen[src] <= a.loadGen {
		return false, 0, false
	}
	sd := a.stampDist[src*a.n+dst]
	if int32(sd>>32) == a.rowGen[src] {
		return true, int(int32(sd)), true
	}
	return false, 0, a.probeFull[src]
}

// bottleneck returns the minimum residual along the found path by walking
// the prev chain (min is order-independent, so walking dst→src matches the
// reference's forward walk exactly).
func (a *Allocator) bottleneck(src, dst int) float64 {
	r := src * a.n
	b := math.Inf(1)
	for v := int32(dst); int(v) != src; {
		pv := a.prevNE[r+int(v)]
		if c := a.caps[int32(pv>>32)]; c < b {
			b = c
		}
		v = int32(pv)
	}
	return b
}

// take subtracts rate from every edge of the found path by walking the
// prev chain. Neither probe memos nor claim trees need invalidation here:
// removing capacity only shrinks the positive-residual graph, which
// preserves every bound probe is allowed to report, and claimSearch checks
// a stored tree's prev edges lazily when it next reads it. Edges that
// saturate leave the live-neighbor rows immediately — the same <= resEps
// test the load applies, so the rows and the capacities never disagree.
func (a *Allocator) take(src, dst int, rate float64) {
	r := src * a.n
	mw := a.mw
	for v := int32(dst); int(v) != src; {
		pv := a.prevNE[r+int(v)]
		e := int32(pv >> 32)
		a.caps[e] -= rate
		u := int32(pv)
		if a.caps[e] <= resEps {
			a.liveAdj[int(u)*mw+int(v)>>6] &^= 1 << uint(v&63)
			a.liveAdj[int(v)*mw+int(u)>>6] &^= 1 << uint(u&63)
		}
		v = u
	}
}

// materializePath rebuilds the found path src..dst into the reusable path
// buffer.
func (a *Allocator) materializePath(src, dst int) {
	r := src * a.n
	a.path = a.path[:0]
	for v := int32(dst); ; v = int32(a.prevNE[r+int(v)]) {
		a.path = append(a.path, int(v))
		if int(v) == src {
			break
		}
	}
	for i, j := 0, len(a.path)-1; i < j; i, j = i+1, j-1 {
		a.path[i], a.path[j] = a.path[j], a.path[i]
	}
}

// run executes the greedy assignment (tiered == Algorithm 3, otherwise the
// sequential ablation variant) and returns the total throughput. When rec
// is non-nil it is invoked after every claimed path with the demand index
// and rate, with the path materialized in a.path (valid until the next
// claim); when rec is nil no path is materialized and the run allocates
// nothing in steady state.
func (a *Allocator) run(ls *topology.LinkSet, theta float64, demands []Demand, tiered bool, rec func(i int, rate float64)) float64 {
	a.load(ls, theta)
	return a.runLoaded(demands, tiered, rec)
}

// runLoaded executes the greedy assignment on the residual network already
// built by load/loadFromLinks.
func (a *Allocator) runLoaded(demands []Demand, tiered bool, rec func(i int, rate float64)) float64 {
	const eps = 1e-9
	throughput := 0.0

	if !tiered {
		for i := range demands {
			d := &demands[i]
			unmet := d.RateGbps
			for unmet > eps {
				if found, _ := a.claimSearch(d.Src, d.Dst); !found {
					break
				}
				rate := math.Min(unmet, a.bottleneck(d.Src, d.Dst))
				if rate <= eps {
					break
				}
				a.take(d.Src, d.Dst, rate)
				unmet -= rate
				throughput += rate
				if rec != nil {
					a.materializePath(d.Src, d.Dst)
					rec(i, rate)
				}
			}
		}
		return throughput
	}

	a.unmet = growF(a.unmet, len(demands))
	a.nextTier = growI(a.nextTier, len(demands))
	a.act = a.act[:0]
	for i, d := range demands {
		a.unmet[i] = d.RateGbps
		a.nextTier[i] = 1
		if d.RateGbps > eps {
			a.act = append(a.act, int32(i))
		}
	}
	// The active list holds exactly the demands with unmet rate and a
	// reachable next tier, in demand order; compacting it in place each tier
	// visits the same demands in the same order as rescanning all of them,
	// without the rescan.
	for l := 1; l <= a.n && len(a.act) > 0; l++ {
		out := a.act[:0]
		for _, i32 := range a.act {
			i := int(i32)
			d := &demands[i]
			if a.nextTier[i] > l {
				out = append(out, i32)
				continue
			}
			for a.unmet[i] > eps {
				// Engine selection (see engines.go). The two non-claiming
				// verdicts — unreachable, or reachable only beyond this tier
				// — are settled without building a tree where a bound
				// already answers them: a probe miss advances the source's
				// resumable sweep row just far enough to bound dst (the row
				// then feeds every later probe from this source). A bound
				// that fits the tier, or that decayed below it (stamped at
				// an earlier tier than is asking), falls through to the
				// stealth claim search, whose exact current distance either
				// confirms the claim — leaving the reference prev chain for
				// bottleneck/take — or yields the exact deferral tier. Lower
				// bounds only ever re-examine a demand EARLIER than the
				// reference flow would, where the claim search repeats the
				// comparison, so which claims happen, in which order, at
				// which rates, is bit-identical.
				//
				// The residual graph is undirected (both directions of an
				// edge share one capacity), so distances are symmetric and
				// dst's row answers the reverse query at the same cost.
				found, hops, known := a.probe(d.Src, d.Dst)
				if !known {
					found, hops, known = a.probe(d.Dst, d.Src)
				}
				if known {
					if !found {
						a.nextTier[i] = math.MaxInt
						break
					}
					if hops > l {
						a.nextTier[i] = hops
						break
					}
				} else {
					// Advance whichever side already holds a row; start one
					// at the source otherwise.
					rs, rd := d.Src, d.Dst
					if a.rowGen[rs] <= a.loadGen && a.rowGen[rd] > a.loadGen {
						rs, rd = rd, rs
					}
					found, bound := a.resumeStamp(rs, rd, l)
					if !found {
						a.nextTier[i] = math.MaxInt
						break
					}
					if bound > l {
						a.nextTier[i] = bound
						break
					}
				}
				found, hops = a.claimSearch(d.Src, d.Dst)
				if !found {
					a.nextTier[i] = math.MaxInt
					break
				}
				if hops > l {
					a.nextTier[i] = hops
					break
				}
				rate := math.Min(a.unmet[i], a.bottleneck(d.Src, d.Dst))
				if rate <= eps {
					a.nextTier[i] = math.MaxInt
					break
				}
				a.take(d.Src, d.Dst, rate)
				a.unmet[i] -= rate
				throughput += rate
				if rec != nil {
					a.materializePath(d.Src, d.Dst)
					rec(i, rate)
				}
			}
			if a.unmet[i] > eps && a.nextTier[i] <= a.n {
				out = append(out, i32)
			}
		}
		a.act = out
	}
	return throughput
}

// Throughput evaluates the tiered greedy assignment and returns only the
// total throughput — the annealing energy. It materializes no paths and
// performs zero allocations in steady state (asserted by
// TestAllocatorThroughputZeroAlloc).
func (a *Allocator) Throughput(ls *topology.LinkSet, theta float64, demands []Demand) float64 {
	return a.run(ls, theta, demands, true, nil)
}

// Greedy runs the tiered greedy assignment and returns the full Result.
// The paths in the result are fresh copies owned by the caller.
func (a *Allocator) Greedy(ls *topology.LinkSet, theta float64, demands []Demand) *Result {
	res := &Result{Alloc: make(map[int][]transfer.PathRate, len(demands))}
	res.Throughput = a.run(ls, theta, demands, true, func(i int, rate float64) {
		id := demands[i].ID
		res.Alloc[id] = append(res.Alloc[id], transfer.PathRate{Path: append([]int(nil), a.path...), Rate: rate})
	})
	return res
}

// GreedySequential runs the no-tier ablation variant and returns the full
// Result. The paths in the result are fresh copies owned by the caller.
func (a *Allocator) GreedySequential(ls *topology.LinkSet, theta float64, demands []Demand) *Result {
	res := &Result{Alloc: make(map[int][]transfer.PathRate, len(demands))}
	res.Throughput = a.run(ls, theta, demands, false, func(i int, rate float64) {
		id := demands[i].ID
		res.Alloc[id] = append(res.Alloc[id], transfer.PathRate{Path: append([]int(nil), a.path...), Rate: rate})
	})
	return res
}
