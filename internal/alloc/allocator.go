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
// the live-neighbor masks agree bit-for-bit with the scalar capacity tests.
const resEps = 1e-9

// Allocator runs the greedy multi-path assignment on flat, edge-id-indexed
// arrays with reusable scratch, so that the annealing energy function —
// which evaluates thousands of candidate topologies per slot — performs
// zero heap allocations in steady state.
//
// Edge ids are minted per load from the LinkSet: edge e is the e-th link of
// the (U, V)-sorted enumeration (topology.LinkSet.AppendLinks), residual
// capacities live in a dense []float64 indexed by edge id, and adjacency is
// CSR-shaped (adjOff/arcs). The BFS uses a ring-buffer queue and
// reconstructs paths by walking the prevNode/prevEdge chains, so bottleneck
// and take never look up an edge by endpoint pair.
//
// Scratch ownership rules: an Allocator owns its buffers exclusively and is
// not safe for concurrent use. Each worker of the parallel annealing engine
// owns one Allocator, exactly as it owns one cloned optical.State. Buffers
// grow monotonically and are retained across calls; results returned by
// Greedy/GreedySequential copy every path out of the scratch, so they do
// not alias it.
//
// Results are bit-identical to the map-based reference implementation in
// reference_test.go: the CSR adjacency preserves the reference's neighbor order
// (both enumerate links in (U, V)-sorted order), the ring-buffer BFS visits
// vertices in the same FIFO order, and rates are computed and subtracted in
// the same sequence, so every float operation sees the same operands.
type Allocator struct {
	n     int
	links []topology.Link // scratch for LinkSet.AppendLinks

	// Flat residual network (per load). Each directed arc packs its
	// neighbor site (low 32 bits) and undirected edge id (high 32 bits)
	// into one word, so the BFS inner loop issues a single sequential load
	// per arc.
	caps   []float64 // residual capacity by edge id
	adjOff []int32   // n+1 CSR offsets
	arcs   []int64   // edgeID<<32 | neighbor, per directed arc
	cur    []int32   // CSR fill cursor

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
	queue     []int32
	rowGen    []int32 // per src: gen of the latest search from src
	gen       int32

	// Per-demand scratch.
	unmet    []float64
	nextTier []int

	// Path materialization scratch (only used when recording allocations).
	path []int

	// Failure-cut memoization (per run). Residual capacities only ever
	// decrease within one run, so the node set a failed BFS visited is a
	// saturated cut that stays saturated: any later demand with its source
	// inside the cut and its destination outside must fail too, and
	// shortestResidual reports that without re-running the search. This is
	// exact, not heuristic — see the invariant comment on shortestResidual.
	cutW    int      // words per cut bitset: ceil(n/64)
	cuts    []uint64 // numCuts concatenated bitsets of visited nodes
	numCuts int
	visit   []uint64 // recordCut scratch: bitset of the failed BFS's labels

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

	// BFS-tree reuse across takes. A minimum-hop tree depends only on WHICH
	// edges have positive residual, not on the residual values, so a row
	// stays exactly current — prev chains included, claims and all — until
	// an edge its search scanned as a prev edge saturates. Removing any
	// OTHER edge cannot change the tree: a skipped or unscanned edge
	// contributed nothing, and shrinking the graph preserves unreachability.
	//
	// On the mask path the books are bitmasks: usedBy[e] collects the
	// sources whose current tree holds e as a prev edge (one OR per label),
	// and a saturation clears exactly those sources from rowLive in one
	// word operation. Stale usedBy bits from superseded trees only ever
	// force a redundant re-search, never a wrong answer. The scalar path
	// (over 64 sites) keeps a coarser epoch: any saturation retires every
	// tree.
	rowLive  uint64
	usedBy   []uint64
	epoch    int32
	rowEpoch []int32

	// act is the tier loop's active-demand list (indices with unmet rate
	// and a reachable next tier), compacted in place each tier so the scan
	// cost tracks the number of live demands instead of all of them.
	act []int32

	// Bitmask BFS. liveAdj[v] holds one bit per neighbor w reachable over an
	// edge with positive residual; take clears bits as edges saturate, so
	// the BFS inner loop replaces the per-arc capacity-and-stamp scan with
	// `liveAdj[v] &^ labeled`. CSR neighbor order is ascending node id (the
	// (U, V)-sorted enumeration lists v's partners x<v then y>v, both
	// ascending), so ascending-bit iteration visits, labels, and enqueues in
	// exactly the reference order — results stay bit-identical, which the
	// differential suites assert. edgeOf[v*n+w] maps a live pair back to its
	// edge id for the prev chain; entries for non-adjacent pairs are never
	// read, so the array needs no clearing between loads.
	//
	// Topologies with at most 64 sites use the specialized single-word
	// fields below (one uint64 per row, registers end to end). Larger
	// topologies use the multi-word twins further down (bitset.Words(n)
	// words per row, internal/bitset layout) — same visit order, word-
	// ascending then bit-ascending, so the bit-identity argument carries
	// over unchanged. forceScalar disables both (benchmark/differential
	// knob; results are identical either way, only wall-clock differs).
	useMask bool
	liveAdj []uint64
	edgeOf  []int32
	// doomed[src] is the union of ^V over every failure cut V containing
	// src: bit dst set means some saturated cut separates src from dst, the
	// exact predicate cutHit scans the cut list for. Updating it costs one
	// OR per cut member at record time and answers every later query with a
	// single bit test, so the mask path needs neither the cut list nor its
	// dedup scan (monotone unions make duplicates free).
	doomed []uint64

	// Multi-word mask path (n > 64): the same books as the single-word
	// fields, each row widened to mw words. usedByW[e] is a bitset over
	// sources; rowLiveW one bitset over sources; labeledW the BFS's visited
	// bitset (reused per search).
	wide        bool
	mw          int
	liveAdjW    []uint64 // n*mw
	doomedW     []uint64 // n*mw
	usedByW     []uint64 // m*mw
	rowLiveW    []uint64 // mw
	labeledW    []uint64 // mw, per-search scratch
	forceScalar bool

	// Claim-tree store (mask paths; see the claim-repair comment in
	// bidi.go). claimSearch persists the canonical BFS tree it builds —
	// labeling order (cQueue), level boundaries (cEnds), labeled bitmap
	// (cVis/cVisW), last complete level (cDepth) — per source, alongside the
	// prev chains already living in the per-source prevNE rows. A later
	// claim from the same source answers from the stored tree when dst's
	// prev chain is still fully live, repairs just the subtree below the
	// shallowest saturated tree edge when it is not, and resumes a truncated
	// sweep where it stopped when dst lies beyond the stored levels. cGen
	// stamps validity the same way rowGen does for the probe rows: a tree is
	// live iff cGen[src] > loadGen. noClaimReuse is the differential knob
	// that forces every claim onto a cold rebuild (bit-identical results,
	// asserted by the 300-seed claim-repair differential).
	cQueue       []int32 // n*n: per-source canonical labeling order
	cEnds        []int32 // n*(n+1): per-source level boundaries, ends[d] = one past level d
	cDepth       []int32 // per source: last complete level
	cVis         []uint64
	cVisW        []uint64 // n*mw multi-word twin of cVis
	cGen         []int32
	noClaimReuse bool

	// Resumable sweep rows (see bidi.go): per-source visited and frontier
	// bitmaps plus the last completed level, so a suspended stamp sweep
	// picks up where it stopped instead of re-walking the component. One
	// word per source on the single-word path, mw words on the multi-word
	// path. Validity rides on rowGen, like the stamps the sweep writes.
	sVis, sFront []uint64
	sLevel       []int32

	// Bidirectional-search scratch (see bidi.go): visited and frontier
	// bitmaps for both ends plus the next-level accumulator (mw words
	// each), the sparse frontier id lists (capacity n, so the level sweeps
	// never allocate), and the sweep's private generation-stamped level
	// arrays — private so a pure distance query never clobbers the probe
	// memo rows.
	bVisS, bVisD []uint64
	bFrS, bFrD   []uint64
	bNext        []uint64
	bIDsS, bIDsD []int32
	bLvS, bLvD   []int64
	bGen         int32

	// Per-source persisted sparse frontier (resumeStampWd): when a sweep
	// suspends on a frontier of at most bSparse nodes, its compact id list
	// survives here so the next resume re-enters sparse enumeration instead
	// of paying a word sweep to rediscover what the last level already
	// collected. A slot is valid only while sFrGen matches the row's
	// generation; every Wd suspension rewrites it, so a reinitialized row
	// can never resurrect a stale list.
	sFrIDs []int32 // n*bSparse: persisted frontier ids
	sFrCnt []int32 // per source: persisted frontier size, 0 = none/dense
	sFrGen []int32 // per source: rowGen at persist time

	// stat counts engine events at call granularity (see engineStats); the
	// differential harnesses read it to prove the paths they force actually
	// fired. Cumulative across loads.
	stat engineStats

	// Warm-load state for ThroughputPatched: the (U, V)-sorted enumeration
	// of the base topology retained by SetBase, so a patched evaluation
	// merges a few changed pairs instead of re-enumerating and re-sorting
	// the whole LinkSet.
	baseLinks []topology.Link
	baseN     int
	baseTheta float64
}

// maxCuts bounds how many failure cuts one run retains; beyond it new
// failures still return false, they just stop enriching the memo.
const maxCuts = 64

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
	a.n = n
	a.caps = growF(a.caps, m)
	a.adjOff = grow32(a.adjOff, n+1)
	a.arcs = grow64(a.arcs, 2*m)
	a.cur = grow32(a.cur, n)
	a.stampDist = grow64(a.stampDist, n*n)
	a.prevNE = grow64(a.prevNE, n*n)
	a.rowGen = grow32(a.rowGen, n)
	// gen deliberately survives loads: stale stamps can never equal a gen
	// they have not seen, so rows need no clearing between topologies. The
	// wrap guard keeps that invariant over arbitrarily long lifetimes.
	if a.gen > math.MaxInt32/2 {
		for i := range a.stampDist {
			a.stampDist[i] = 0
		}
		for i := range a.rowGen {
			a.rowGen[i] = 0
		}
		for i := range a.cGen {
			a.cGen[i] = 0
		}
		for i := range a.sFrGen {
			a.sFrGen[i] = 0
		}
		a.gen = 0
	}
	if cap(a.probeFull) < n {
		a.probeFull = make([]bool, n)
		a.rowEpoch = make([]int32, n)
	}
	a.probeFull = a.probeFull[:n]
	a.rowEpoch = a.rowEpoch[:n]
	a.loadGen = a.gen
	a.epoch = 0

	for i := range a.adjOff {
		a.adjOff[i] = 0
	}
	for _, l := range a.links {
		a.adjOff[l.U+1]++
		a.adjOff[l.V+1]++
	}
	for i := 0; i < n; i++ {
		a.adjOff[i+1] += a.adjOff[i]
	}
	copy(a.cur, a.adjOff[:n])
	a.useMask = !a.forceScalar
	a.wide = a.useMask && n > 64
	if a.useMask {
		// Private level arrays for the bidirectional distance query; gen-
		// stamped like stampDist so starting a query is O(1), with the same
		// wrap guard.
		if a.bGen > math.MaxInt32/2 {
			for i := range a.bLvS {
				a.bLvS[i] = 0
			}
			for i := range a.bLvD {
				a.bLvD[i] = 0
			}
			a.bGen = 0
		}
		a.bLvS = grow64(a.bLvS, n)
		a.bLvD = grow64(a.bLvD, n)
		a.bIDsS = grow32(a.bIDsS, n)[:0]
		a.bIDsD = grow32(a.bIDsD, n)[:0]
		a.sLevel = grow32(a.sLevel, n)
		// Claim-tree rows need no clearing: cGen gates every read, and a
		// stale stamp can never exceed the fresh loadGen (see rowGen).
		a.cQueue = grow32(a.cQueue, n*n)
		a.cEnds = grow32(a.cEnds, n*(n+1))
		a.cDepth = grow32(a.cDepth, n)
		a.cGen = grow32(a.cGen, n)
	}
	if a.useMask && !a.wide {
		if cap(a.liveAdj) < n {
			a.liveAdj = make([]uint64, n)
			a.doomed = make([]uint64, n)
		} else {
			a.liveAdj = a.liveAdj[:n]
			a.doomed = a.doomed[:n]
			clear(a.liveAdj)
			clear(a.doomed)
		}
		a.edgeOf = grow32(a.edgeOf, n*n)
		a.usedBy = growU(a.usedBy, m)
		clear(a.usedBy)
		a.rowLive = 0
		// No clearing: a resumable row is read only after resumeStamp
		// validates rowGen and (re)initializes it.
		a.sVis = growU(a.sVis, n)
		a.sFront = growU(a.sFront, n)
		a.cVis = growU(a.cVis, n)
	}
	if a.wide {
		mw := bitset.Words(n)
		a.mw = mw
		a.liveAdjW = growU(a.liveAdjW, n*mw)
		clear(a.liveAdjW)
		a.doomedW = growU(a.doomedW, n*mw)
		clear(a.doomedW)
		a.usedByW = growU(a.usedByW, m*mw)
		clear(a.usedByW)
		a.rowLiveW = growU(a.rowLiveW, mw)
		clear(a.rowLiveW)
		a.labeledW = growU(a.labeledW, mw)
		a.edgeOf = grow32(a.edgeOf, n*n)
		a.bVisS = growU(a.bVisS, mw)
		a.bVisD = growU(a.bVisD, mw)
		a.bFrS = growU(a.bFrS, mw)
		a.bFrD = growU(a.bFrD, mw)
		a.bNext = growU(a.bNext, mw)
		a.sVis = growU(a.sVis, n*mw)
		a.sFront = growU(a.sFront, n*mw)
		a.cVisW = growU(a.cVisW, n*mw)
		a.sFrIDs = grow32(a.sFrIDs, n*bSparse)
		a.sFrCnt = grow32(a.sFrCnt, n)
		a.sFrGen = grow32(a.sFrGen, n)
	}
	// Filling in link-enumeration order reproduces the reference
	// implementation's per-site neighbor order exactly.
	for e, l := range a.links {
		a.caps[e] = float64(l.Count) * theta
		a.arcs[a.cur[l.U]] = int64(e)<<32 | int64(l.V)
		a.cur[l.U]++
		a.arcs[a.cur[l.V]] = int64(e)<<32 | int64(l.U)
		a.cur[l.V]++
		if a.useMask && a.caps[e] > resEps {
			if a.wide {
				a.liveAdjW[l.U*a.mw+l.V>>6] |= 1 << uint(l.V&63)
				a.liveAdjW[l.V*a.mw+l.U>>6] |= 1 << uint(l.U&63)
			} else {
				a.liveAdj[l.U] |= 1 << uint(l.V)
				a.liveAdj[l.V] |= 1 << uint(l.U)
			}
			a.edgeOf[l.U*n+l.V] = int32(e)
			a.edgeOf[l.V*n+l.U] = int32(e)
		}
	}

	// Residuals are fresh, so cuts from the previous run no longer hold.
	a.cutW = (n + 63) / 64
	a.visit = growU(a.visit, a.cutW)
	a.numCuts = 0
	a.cuts = a.cuts[:0]
}

// SetScalarFallback forces every subsequent load onto the scalar BFS path,
// disabling both the single-word and multi-word mask fast paths. Results are
// bit-identical either way — this is the benchmark and differential-test knob
// that measures the masks' speedup and cross-checks their correctness. It
// takes effect at the next load.
func (a *Allocator) SetScalarFallback(on bool) { a.forceScalar = on }

// SetClaimReuse toggles claim-tree reuse across takes (on by default; mask
// paths only). Off forces every claim search onto a cold rebuild — results
// are bit-identical either way, only wall-clock differs — which is the knob
// the claim-repair differential suite flips. It takes effect immediately.
func (a *Allocator) SetClaimReuse(on bool) { a.noClaimReuse = !on }

// SetBase retains the enumeration of a base topology for subsequent
// ThroughputPatched calls. The LinkSet is only read during this call.
func (a *Allocator) SetBase(ls *topology.LinkSet, theta float64) {
	a.baseLinks = ls.AppendLinks(a.baseLinks[:0])
	a.baseN = ls.N
	a.baseTheta = theta
}

// SetBaseLinks is SetBase for callers that already hold the (U, V)-sorted
// enumeration (the delta evaluator shares one snapshot enumeration across
// workers; copying a flat slice avoids concurrent map walks).
func (a *Allocator) SetBaseLinks(n int, links []topology.Link, theta float64) {
	a.baseLinks = append(a.baseLinks[:0], links...)
	a.baseN = n
	a.baseTheta = theta
}

// ThroughputPatched evaluates the tiered greedy assignment on the base
// topology registered by SetBase with a small patch applied: patch entries
// are (U, V)-sorted and carry the NEW circuit count of their pair (0 removes
// it). The result is bit-identical to Throughput on the patched LinkSet —
// the merged enumeration is exactly what AppendLinks would produce (see
// topology.MergePatch) — while skipping the map iteration and sort of a full
// load. This is the allocation warm path of the annealing delta evaluator.
func (a *Allocator) ThroughputPatched(patch []topology.Link, demands []Demand) float64 {
	a.links = topology.MergePatch(a.links[:0], a.baseLinks, patch)
	a.loadFromLinks(a.baseN, a.baseTheta)
	return a.runLoaded(demands, true, nil)
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

// cutHit reports whether a stored failure cut already proves dst unreachable
// from src on the current residuals.
func (a *Allocator) cutHit(src, dst int) bool {
	if a.useMask {
		if a.wide {
			return a.doomedW[src*a.mw+dst>>6]>>uint(dst&63)&1 == 1
		}
		return a.doomed[src]>>uint(dst)&1 == 1
	}
	sw, sb := src>>6, uint(src&63)
	dw, db := dst>>6, uint(dst&63)
	for c := 0; c < a.numCuts; c++ {
		base := c * a.cutW
		if a.cuts[base+sw]>>sb&1 == 1 && a.cuts[base+dw]>>db&1 == 0 {
			return true
		}
	}
	return false
}

// recordCutMask folds a failed mask-BFS's visited set into the doomed
// tables: every member of the cut cannot reach any non-member for the rest
// of the run.
func (a *Allocator) recordCutMask(visited uint64) {
	out := ^visited
	for m := visited; m != 0; m &= m - 1 {
		a.doomed[bits.TrailingZeros64(m)] |= out
	}
}

// recordCutMaskW is recordCutMask for the multi-word path. Bits at positions
// >= n in the last word get set in doomedW rows, exactly as the single-word
// variant sets bits >= n of doomed; they correspond to no node and are never
// tested.
func (a *Allocator) recordCutMaskW(visited []uint64) {
	mw := a.mw
	for wi, vw := range visited {
		base := wi << 6
		for m := vw; m != 0; m &= m - 1 {
			src := base + bits.TrailingZeros64(m)
			row := a.doomedW[src*mw : src*mw+mw]
			for wj := 0; wj < mw; wj++ {
				row[wj] |= ^visited[wj]
			}
		}
	}
}

// recordCut stores the visited set of a failed BFS unless it is already
// known or the memo is full. The visited set is reconstructed from the BFS
// queue — on failure every labeled node was enqueued — so the success path
// pays nothing toward cut bookkeeping.
func (a *Allocator) recordCut() {
	if a.numCuts >= maxCuts {
		return
	}
	for i := 0; i < a.cutW; i++ {
		a.visit[i] = 0
	}
	for _, v := range a.queue {
		a.visit[v>>6] |= 1 << uint(v&63)
	}
next:
	for c := 0; c < a.numCuts; c++ {
		for w := 0; w < a.cutW; w++ {
			if a.cuts[c*a.cutW+w] != a.visit[w] {
				continue next
			}
		}
		return
	}
	a.cuts = append(a.cuts, a.visit[:a.cutW]...)
	a.numCuts++
}

// shortestResidual runs a minimum-hop BFS from src to dst over links with
// positive residual capacity, leaving the prevNode/prevEdge chain and hop
// count behind. It reports whether dst was reached.
//
// Two exact shortcuts keep it off the profile's top line without changing a
// single result:
//
//   - Failure cuts. Within one run residual capacities only decrease (take
//     subtracts, nothing adds), so when a BFS fails, every edge leaving its
//     visited set V had residual <= eps and will keep it for the rest of the
//     run. Any later query with src in V and dst outside V is doomed, and
//     cutHit answers it from two bit tests. Callers never read dist/prev
//     after a failure, so skipping the search is observationally identical.
//
//   - Early exit. The search stops the moment dst is labeled rather than
//     dequeued. dst's dist and prev chain are fixed at labeling time (the
//     scan order is identical to the full BFS up to that point), and the
//     nodes a full BFS would label afterwards influence nothing: bottleneck,
//     take and materializePath only walk dst's prev chain.
func (a *Allocator) shortestResidual(src, dst int) bool {
	const eps = 1e-9
	// Tree reuse: src's latest tree is exactly current if no prev edge of
	// it has saturated since it was built (mask path: rowLive bit; scalar
	// path: no saturation at all since the build). A labeled dst means its
	// prev chain is ready to claim as-is; an unlabeled dst in a full scan is
	// unreachable (and its cut was recorded by the search that built the
	// tree). Only a truncated tree that stopped short of dst needs a fresh
	// search.
	if a.rowGen[src] > a.loadGen {
		var live bool
		switch {
		case !a.useMask:
			live = a.rowEpoch[src] == a.epoch
		case a.wide:
			live = a.rowLiveW[src>>6]>>uint(src&63)&1 == 1
		default:
			live = a.rowLive>>uint(src&63)&1 == 1
		}
		if live {
			if int32(a.stampDist[src*a.n+dst]>>32) == a.rowGen[src] {
				return true
			}
			if a.probeFull[src] {
				return false
			}
		}
	}
	if a.cutHit(src, dst) {
		return false
	}
	a.gen++
	gen := int64(a.gen)
	r := src * a.n
	stampDist := a.stampDist[r : r+a.n]
	prevNE := a.prevNE[r : r+a.n]
	caps := a.caps
	adjOff, arcs := a.adjOff, a.arcs
	stampDist[src] = gen << 32
	a.rowGen[src] = a.gen
	a.rowEpoch[src] = a.epoch
	a.queue = append(a.queue[:0], int32(src))
	if a.wide {
		// Multi-word twin of the single-word mask walk below: per queue node
		// the neighbor words are scanned word-ascending, bits ascending via
		// TrailingZeros64, which is ascending neighbor id — the same order as
		// both the single-word walk and the scalar arc scan, so prev chains,
		// hop counts, early exit, and recorded cuts stay bit-identical.
		edgeOf, n, mw := a.edgeOf, a.n, a.mw
		lab := a.labeledW[:mw]
		clear(lab)
		sw, sb := src>>6, uint(src)&63
		a.rowLiveW[sw] |= 1 << sb
		lab[sw] |= 1 << sb
		for head := 0; head < len(a.queue); head++ {
			v := a.queue[head]
			sdv := stampDist[v] + 1
			vLow := int64(v)
			vRow := a.liveAdjW[int(v)*mw : int(v)*mw+mw]
			for wi := 0; wi < mw; wi++ {
				nw := vRow[wi] &^ lab[wi]
				if nw == 0 {
					continue
				}
				lab[wi] |= nw
				base := wi << 6
				for ; nw != 0; nw &= nw - 1 {
					w := int32(base + bits.TrailingZeros64(nw))
					e := edgeOf[int(v)*n+int(w)]
					stampDist[w] = sdv
					prevNE[w] = int64(e)<<32 | vLow
					a.usedByW[int(e)*mw+sw] |= 1 << sb
					if int(w) == dst {
						a.probeFull[src] = false
						return true
					}
					a.queue = append(a.queue, w)
				}
			}
		}
		a.probeFull[src] = true
		a.recordCutMaskW(lab)
		return false
	}
	if a.useMask {
		// The mask walk labels exactly the nodes the arc scan below would,
		// in the same order (ascending neighbor id), so prev chains, hop
		// counts, early exit, and recorded cuts are all bit-identical.
		edgeOf, usedBy, n := a.edgeOf, a.usedBy, a.n
		srcBit := uint64(1) << uint(src)
		a.rowLive |= srcBit
		labeled := srcBit
		for head := 0; head < len(a.queue); head++ {
			v := a.queue[head]
			sdv := stampDist[v] + 1
			vLow := int64(v)
			nw := a.liveAdj[v] &^ labeled
			labeled |= nw
			for nw != 0 {
				w := int32(bits.TrailingZeros64(nw))
				nw &= nw - 1
				e := edgeOf[int(v)*n+int(w)]
				stampDist[w] = sdv
				prevNE[w] = int64(e)<<32 | vLow
				usedBy[e] |= srcBit
				if int(w) == dst {
					a.probeFull[src] = false
					return true
				}
				a.queue = append(a.queue, w)
			}
		}
		a.probeFull[src] = true
		a.recordCutMask(labeled)
		return false
	}
	for head := 0; head < len(a.queue); head++ {
		v := a.queue[head]
		// dist+1 never carries into the stamp half (hop counts stay < n).
		sdv := stampDist[v] + 1
		vLow := int64(v)
		for j := adjOff[v]; j < adjOff[v+1]; j++ {
			ar := arcs[j]
			w := int32(ar)
			if stampDist[w]>>32 == gen || caps[int32(ar>>32)] <= eps {
				continue
			}
			stampDist[w] = sdv
			prevNE[w] = ar&^0xffffffff | vLow
			if int(w) == dst {
				a.probeFull[src] = false
				return true
			}
			a.queue = append(a.queue, w)
		}
	}
	a.probeFull[src] = true
	a.recordCut()
	return false
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
// prev chain. Probe memos need no invalidation here: removing capacity only
// shrinks the positive-residual graph, which preserves every bound probe
// is allowed to report. Edges that saturate leave the live-neighbor masks
// immediately — the same <= resEps test the scalar BFS applies per arc, so
// the masks and the capacities never disagree.
func (a *Allocator) take(src, dst int, rate float64) {
	r := src * a.n
	for v := int32(dst); int(v) != src; {
		pv := a.prevNE[r+int(v)]
		e := int32(pv >> 32)
		a.caps[e] -= rate
		u := int32(pv)
		if a.caps[e] <= resEps {
			a.epoch++ // the positive-residual edge set shrank
			if a.wide {
				mw := a.mw
				ub := a.usedByW[int(e)*mw : int(e)*mw+mw]
				rl := a.rowLiveW[:mw]
				for wi := 0; wi < mw; wi++ {
					rl[wi] &^= ub[wi] // only trees holding e as a prev edge go stale
				}
				a.liveAdjW[int(u)*mw+int(v)>>6] &^= 1 << uint(v&63)
				a.liveAdjW[int(v)*mw+int(u)>>6] &^= 1 << uint(u&63)
			} else if a.useMask {
				a.rowLive &^= a.usedBy[e] // only trees holding e as a prev edge go stale
				a.liveAdj[u] &^= 1 << uint(v)
				a.liveAdj[v] &^= 1 << uint(u)
			}
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
				if !a.shortestResidual(d.Src, d.Dst) {
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
				// Engine selection (see bidi.go). Mask paths settle the two
				// non-claiming verdicts — unreachable, or reachable only
				// beyond this tier — without ever building a tree: a probe
				// miss advances the source's resumable sweep row just far
				// enough to bound dst (the row then feeds every later probe
				// from this source), and a probe hit whose bound decayed
				// (stamped at an earlier tier than is asking) is re-verified
				// by the bidirectional query, cheap precisely because the
				// bound was small. A bound that fits the tier falls through
				// to the stealth claim search, whose exact current distance
				// either confirms the claim — leaving the canonical prev
				// chain for bottleneck/take — or yields the exact deferral
				// tier. Lower bounds only ever re-examine a demand EARLIER
				// than the canonical flow would, where the claim search
				// repeats the comparison, so which claims happen, in which
				// order, at which rates, is bit-identical.
				if a.useMask {
					// The residual graph is undirected (arcs of an edge
					// share one capacity), so distances are symmetric and
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
						if hops < l {
							found, hops = a.searchBounded(d.Src, d.Dst)
							if !found {
								a.nextTier[i] = math.MaxInt
								break
							}
							if hops > l {
								a.nextTier[i] = hops
								break
							}
						}
					} else {
						// Advance whichever side already holds a row; start
						// one at the source otherwise.
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
				} else {
					// Scalar fallback: the canonical single-engine flow. A
					// memoized probe tree answers the non-claiming outcomes;
					// the claiming outcome needs the prev chains and current
					// hops, so it falls through to the real search.
					if found, hops, known := a.probe(d.Src, d.Dst); known {
						if !found {
							a.nextTier[i] = math.MaxInt
							break
						}
						if hops > l {
							a.nextTier[i] = hops
							break
						}
					}
					if !a.shortestResidual(d.Src, d.Dst) {
						a.nextTier[i] = math.MaxInt
						break
					}
					if hops := int(int32(a.stampDist[d.Src*a.n+d.Dst])); hops > l {
						a.nextTier[i] = hops
						break
					}
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
