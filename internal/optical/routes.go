package optical

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"owan/internal/bitset"
	"owan/internal/graph"
	"owan/internal/topology"
)

// fiberRoute is one candidate fiber realization of a segment.
type fiberRoute struct {
	ids []int
	km  float64
}

// kFiberPaths is how many fiber routes per site pair a segment may try.
const kFiberPaths = 3

// routeTables is the immutable fiber-layer precomputation of one network:
// per ordered site pair within the padded reach (reachBound) the shortest
// fiber distance, the primary fiber route and the in-reach alternates, and the
// static reach adjacency derived from them. A pair past the padded reach is a
// bare entry: pairDist holds pastReach and there is no route, no index entry
// and no tie flag, because no segment can ride it and no cut brings it back
// (a cut only lengthens paths). Its shortest path is FiberPathIDs' business
// alone, answered on demand by far. Everything but far's memo is a pure
// function of the Network, read-only after construction, and shared by every
// State built on that network — and, row by row, by the tables derived from
// it when a fiber is cut (withoutFiber).
type routeTables struct {
	fiberGraph *graph.Graph
	pairDist   [][]float64
	pairPath   [][][]int
	pairAlts   [][][]fiberRoute
	inReach    []bool
	regenReach bitset.Set
	reachMaskW bitset.Set
	maskW      int

	// The repair index. fiberPairs[fiberOff[f]:fiberOff[f+1]] lists, in
	// ascending order, the ordered pairs u*ns+v whose k-shortest-path answer
	// has fiber f on one of its paths — the answer bounded at the padded
	// reach: the primary and the alternates that can be in pairAlts. Nothing
	// past reach needs indexing. Yen returns paths in nondecreasing weight and
	// a cut only removes paths, so a path longer than ReachKm, and every path
	// ranked after it, is longer before and after any cut: losing it can never
	// bring an alternate into pairAlts — and a pair whose primary is past the
	// padded reach stays a bare entry. tied holds the pairs whose answer met a
	// tie (see graph.Scratch.PathsTied). For every other pair, deleting a fiber
	// its paths do not use leaves pairDist, pairPath and pairAlts as they are.
	fiberOff   []int32
	fiberPairs []int32
	tied       bitset.Set

	far *farPaths
}

// pastReach is the pairDist of a pair whose shortest fiber route is longer
// than the padded reach. It reads as unreachable, which to a segment it is.
var pastReach = math.Inf(1)

// farPaths answers fiberPath for the bare pairs: the shortest fiber path,
// read off a Dijkstra tree over the tables' fiber graph — the run the cold
// build makes for the source, so the path is the one the tables would have
// stored. A source's tree is built on its first request and kept as one arc
// per site; a pair's path is built on its first request and kept, so every
// caller gets the same slice for the tables' lifetime. The mutex makes both
// safe for concurrent callers.
type farPaths struct {
	g     *graph.Graph
	mu    sync.Mutex
	tree  graph.Tree
	arcs  [][]treeArc // per source; nil until asked
	paths map[int32][]int
}

// treeArc is the arc into a site on its source's shortest-path tree; from is
// -1 at the source and at a site the tree does not reach.
type treeArc struct{ from, fiber int32 }

func newFarPaths(g *graph.Graph) *farPaths {
	return &farPaths{g: g, arcs: make([][]treeArc, g.N()), paths: map[int32][]int{}}
}

// fiberPath returns the fiber ids of the shortest fiber path u->v, nil if
// there is none: the stored primary, or the on-demand path of a bare pair.
func (rt *routeTables) fiberPath(u, v int) []int {
	if p := rt.pairPath[u][v]; p != nil || rt.pairDist[u][v] != pastReach {
		return p
	}
	return rt.far.path(u, v)
}

func (fp *farPaths) path(u, v int) []int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	g := fp.g
	pair := int32(u*g.N() + v)
	if p, ok := fp.paths[pair]; ok {
		return p
	}
	arcs := fp.arcs[u]
	if arcs == nil {
		g.ShortestTree(&fp.tree, u)
		arcs = make([]treeArc, g.N())
		for x := range arcs {
			arcs[x] = treeArc{-1, -1}
			if e, ok := fp.tree.Arc(x); ok {
				arcs[x] = treeArc{int32(e.From), int32(e.ID)}
			}
		}
		fp.arcs[u] = arcs
	}
	n := 0
	for x := v; arcs[x].from >= 0; x = int(arcs[x].from) {
		n++
	}
	if n == 0 {
		return nil // unreachable
	}
	p := make([]int, n)
	for x := v; arcs[x].from >= 0; x = int(arcs[x].from) {
		n--
		p[n] = int(arcs[x].fiber)
	}
	fp.paths[pair] = p
	return p
}

// routeTablesKey is the key the tables are memoized under on their Network.
//
// Building them is an all-pairs k-shortest-path sweep, by far the most
// expensive part of NewState, and one network is routinely given to several
// states: the controller core, the update planner and the control plane each
// hold one. So the tables are kept with their *Network (topology.Network.
// Memo): every NewState after the first is free, tables derived by
// WithoutFiber are kept with the reduced network, and all of them become
// garbage with their network — a run of set-ups pins nothing. The key is
// Network identity, not content: a caller that builds an equal network
// afresh is asking for a fresh set-up.
type routeTablesKey struct{}

// tablesOf returns net's tables, calling build for them on net's first use.
func tablesOf(net *topology.Network, build func() *routeTables) *routeTables {
	return net.Memo(routeTablesKey{}, func() any { return build() }).(*routeTables)
}

// cutKey is the key a network's copy without one fiber is memoized under on
// that network (State.WithoutFiber). Every state on a network that is told
// of the same cut — the controller core's and the update planner's — so
// lands on one reduced *Network, and its tables are repaired once. A network
// keeps the copies cut from it, and their tables, as long as it lives.
type cutKey struct{ fiber int }

// reachBound is the weight past which the k-shortest queries stop: ReachKm,
// padded by the kernel's tie slack so that routes at the boundary — equal in
// km to one just past it, but summed in another order — are still computed
// and filtered by the same km <= ReachKm test as every other alternate.
func reachBound(net *topology.Network) float64 { return net.ReachKm * (1 + graph.SelectSlack) }

// pairUse is one entry of the repair index before it is grouped by fiber.
type pairUse struct{ fiber, pair int32 }

// routeRow is one source site's share of the tables.
type routeRow struct {
	u    int
	dsts []int32 // destinations to compute; nil means all of them
	dist []float64
	path [][]int
	alts [][]fiberRoute
	uses []pairUse // ascending pair
	tied []int32   // pairs
}

// rowBuilder is one worker's reusable state for computing routeRows.
type rowBuilder struct {
	g     *graph.Graph
	ns    int
	reach float64
	bound float64 // reachBound
	tree  graph.Tree
	sc    graph.Scratch
	// mark[f] == stamp while fiber f has been indexed for the current pair.
	mark  []int32
	stamp int32
	// One row's routes before they are packed: ids end to end, and one seg
	// per kept route, primaries and their alternates in destination order.
	ids  []int
	segs []routeSeg
	uses []pairUse
	tied []int32
}

type routeSeg struct {
	v, off, n int
	alt       bool
	km        float64
}

func newRowBuilder(g *graph.Graph, net *topology.Network) *rowBuilder {
	return &rowBuilder{g: g, ns: net.NumSites(), reach: net.ReachKm, bound: reachBound(net), mark: make([]int32, maxFiberID(net)+1)}
}

// build fills row: one Dijkstra tree from the source for the distances and
// every first path within reachBound, then the alternates of each such
// destination, searched only as far as reachBound. The routes of a row share
// one id array and one fiberRoute array, so a row costs a handful of
// allocations however many pairs it holds.
func (b *rowBuilder) build(row *routeRow) {
	b.g.ShortestTree(&b.tree, row.u)
	b.ids, b.segs, b.uses, b.tied = b.ids[:0], b.segs[:0], b.uses[:0], b.tied[:0]
	if row.dsts == nil {
		for v := 0; v < b.ns; v++ {
			b.pair(row, v)
		}
	} else {
		for _, v := range row.dsts {
			b.pair(row, int(v))
		}
	}
	ids := slices.Clone(b.ids)
	nAlts := 0
	for _, s := range b.segs {
		if s.alt {
			nAlts++
		}
	}
	routes := make([]fiberRoute, 0, nAlts)
	for _, s := range b.segs {
		r := ids[s.off : s.off+s.n : s.off+s.n]
		if !s.alt {
			row.path[s.v] = r
			continue
		}
		// A pair's alternates are consecutive, so its slice grows in place.
		routes = append(routes, fiberRoute{ids: r, km: s.km})
		row.alts[s.v] = routes[len(routes)-1-len(row.alts[s.v]) : len(routes) : len(routes)]
	}
	row.uses, row.tied = slices.Clone(b.uses), slices.Clone(b.tied)
}

func (b *rowBuilder) pair(row *routeRow, v int) {
	row.dist[v], row.path[v], row.alts[v] = b.tree.Dist(v), nil, nil
	if v == row.u {
		return
	}
	if row.dist[v] > b.bound {
		// Past the padded reach no segment can use the pair's routes, and a
		// cut only lengthens them: a bare entry, never indexed, never redone.
		row.dist[v] = pastReach
		return
	}
	n := b.g.KShortestFrom(&b.sc, &b.tree, v, kFiberPaths, b.bound)
	if n == 0 {
		return
	}
	pair := int32(row.u*b.ns + v)
	b.stamp++
	for pi := 0; pi < n; pi++ {
		edges, km := b.sc.PathEdges(pi), b.sc.PathWeight(pi)
		for _, e := range edges {
			if b.mark[e.ID] != b.stamp {
				b.mark[e.ID] = b.stamp
				b.uses = append(b.uses, pairUse{int32(e.ID), pair})
			}
		}
		// Alternates are only useful if they themselves stay within
		// optical reach.
		if pi > 0 && !(km <= b.reach) {
			continue
		}
		b.segs = append(b.segs, routeSeg{v: v, off: len(b.ids), n: len(edges), alt: pi > 0, km: km})
		for _, e := range edges {
			b.ids = append(b.ids, e.ID)
		}
	}
	if b.sc.PathsTied() {
		b.tied = append(b.tied, pair)
	}
}

// buildRows computes the rows on up to GOMAXPROCS workers, each with its own
// scratch. Rows are independent, so the result does not depend on the worker
// count or on which worker took which row.
func buildRows(g *graph.Graph, net *topology.Network, rows []routeRow) {
	workers := min(runtime.GOMAXPROCS(0), len(rows))
	if workers <= 1 {
		b := newRowBuilder(g, net)
		for i := range rows {
			b.build(&rows[i])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := newRowBuilder(g, net)
			for i := int(next.Add(1)) - 1; i < len(rows); i = int(next.Add(1)) - 1 {
				b.build(&rows[i])
			}
		}()
	}
	wg.Wait()
}

// groupByFiber turns the rows' index entries into CSR lists by fiber. Rows
// must be in ascending source order, which keeps every list ascending.
func groupByFiber(nf int, rows []routeRow) (off, pairs []int32) {
	off = make([]int32, nf+1)
	for i := range rows {
		for _, x := range rows[i].uses {
			off[x.fiber+1]++
		}
	}
	for f := 0; f < nf; f++ {
		off[f+1] += off[f]
	}
	pairs = make([]int32, off[nf])
	next := slices.Clone(off[:nf])
	for i := range rows {
		for _, x := range rows[i].uses {
			pairs[next[x.fiber]] = x.pair
			next[x.fiber]++
		}
	}
	return off, pairs
}

func maxFiberID(net *topology.Network) int {
	m := 0
	for _, f := range net.Fibers {
		m = max(m, f.ID)
	}
	return m
}

func buildRouteTables(net *topology.Network) *routeTables {
	ns, g := net.NumSites(), net.FiberGraph()
	rt := &routeTables{
		fiberGraph: g,
		pairDist:   make([][]float64, ns),
		pairPath:   make([][][]int, ns),
		pairAlts:   make([][][]fiberRoute, ns),
		inReach:    make([]bool, ns*ns),
		tied:       bitset.New(ns * ns),
		far:        newFarPaths(g),
	}
	rows := make([]routeRow, ns)
	for u := range rows {
		rows[u] = routeRow{u: u, dist: make([]float64, ns), path: make([][]int, ns), alts: make([][]fiberRoute, ns)}
	}
	buildRows(rt.fiberGraph, net, rows)
	for u := range rows {
		row := &rows[u]
		rt.pairDist[u], rt.pairPath[u], rt.pairAlts[u] = row.dist, row.path, row.alts
		for v := 0; v < ns; v++ {
			rt.inReach[u*ns+v] = rt.canReach(net, u, v)
		}
		for _, p := range row.tied {
			rt.tied.Set(int(p))
		}
	}
	rt.fiberOff, rt.fiberPairs = groupByFiber(maxFiberID(net)+1, rows)
	rt.deriveReach(net)
	return rt
}

// canReach computes the inReach bit of a pair from its table entries.
func (rt *routeTables) canReach(net *topology.Network, u, v int) bool {
	return rt.pairDist[u][v] <= net.ReachKm && rt.pairPath[u][v] != nil
}

// deriveReach computes the tables that are functions of inReach alone: the
// reach masks and the static regenerator reachability.
func (rt *routeTables) deriveReach(net *topology.Network) {
	ns := net.NumSites()
	rt.maskW = bitset.Words(ns)
	rt.reachMaskW = make(bitset.Set, ns*rt.maskW)
	for u := 0; u < ns; u++ {
		row := rt.reachMaskW[u*rt.maskW : (u+1)*rt.maskW]
		for v := 0; v < ns; v++ {
			if rt.inReach[u*ns+v] {
				row.Set(v)
			}
		}
	}
	// Static regenerator reachability: one word-parallel BFS per source over
	// the reach masks, expanding only through sites whose static regenerator
	// pool is nonzero (the source itself needs no regenerator to transmit). A
	// row holds the sites reached, the source excluded.
	regen, done := bitset.New(ns), bitset.New(ns)
	for v, s := range net.Sites {
		if s.Regenerators > 0 {
			regen.Set(v)
		}
	}
	rt.regenReach = make(bitset.Set, ns*rt.maskW)
	for u := 0; u < ns; u++ {
		row := rt.regenReach[u*rt.maskW : (u+1)*rt.maskW]
		bitset.Closure(row, done, rt.reachMaskW, regen, u)
		row.Clear(u)
	}
}

// withoutFiber derives the tables of net, which is rt's network less fiber
// cut, by repair: only the pairs the index lists under the cut fiber and the
// tied pairs are recomputed, on the reduced fiber graph. Every other pair's
// entries, and every source row without a recomputed pair, are shared with
// rt; a row with one is copied first. The result is what buildRouteTables
// returns for net, field for field.
func (rt *routeTables) withoutFiber(net *topology.Network, cut int) *routeTables {
	ns := net.NumSites()
	redo := slices.Clone(rt.tied)
	if cut+1 < len(rt.fiberOff) {
		for _, p := range rt.fiberPairs[rt.fiberOff[cut]:rt.fiberOff[cut+1]] {
			redo.Set(int(p))
		}
	}
	var rows []routeRow
	redo.ForEach(func(p int) {
		u := p / ns
		if len(rows) == 0 || rows[len(rows)-1].u != u {
			rows = append(rows, routeRow{
				u:    u,
				dist: slices.Clone(rt.pairDist[u]),
				path: slices.Clone(rt.pairPath[u]),
				alts: slices.Clone(rt.pairAlts[u]),
			})
		}
		row := &rows[len(rows)-1]
		row.dsts = append(row.dsts, int32(p%ns))
	})

	g := net.FiberGraph()
	nw := &routeTables{
		fiberGraph: g,
		pairDist:   slices.Clone(rt.pairDist),
		pairPath:   slices.Clone(rt.pairPath),
		pairAlts:   slices.Clone(rt.pairAlts),
		inReach:    rt.inReach,
		regenReach: rt.regenReach,
		reachMaskW: rt.reachMaskW,
		maskW:      rt.maskW,
		tied:       bitset.New(ns * ns),
		far:        newFarPaths(g),
	}
	buildRows(nw.fiberGraph, net, rows)
	reachChanged := false
	for i := range rows {
		row := &rows[i]
		nw.pairDist[row.u], nw.pairPath[row.u], nw.pairAlts[row.u] = row.dist, row.path, row.alts
		for _, v := range row.dsts {
			p := row.u*ns + int(v)
			if in := nw.canReach(net, row.u, int(v)); in != nw.inReach[p] {
				if !reachChanged {
					nw.inReach, reachChanged = slices.Clone(rt.inReach), true
				}
				nw.inReach[p] = in
			}
		}
		for _, p := range row.tied {
			nw.tied.Set(int(p))
		}
	}
	if reachChanged {
		nw.deriveReach(net)
	}

	// The index: each surviving fiber keeps its pairs that were not
	// recomputed and gains the recomputed pairs that now use it.
	nf := maxFiberID(net) + 1
	addOff, addPairs := groupByFiber(nf, rows)
	nw.fiberOff = make([]int32, nf+1)
	nw.fiberPairs = make([]int32, 0, len(rt.fiberPairs))
	for f := 0; f < nf; f++ {
		add := addPairs[addOff[f]:addOff[f+1]]
		for _, p := range rt.fiberPairs[rt.fiberOff[f]:rt.fiberOff[f+1]] {
			if redo.Test(int(p)) {
				continue
			}
			for len(add) > 0 && add[0] < p {
				nw.fiberPairs = append(nw.fiberPairs, add[0])
				add = add[1:]
			}
			nw.fiberPairs = append(nw.fiberPairs, p)
		}
		nw.fiberPairs = append(nw.fiberPairs, add...)
		nw.fiberOff[f+1] = int32(len(nw.fiberPairs))
	}
	return nw
}
