package optical

import (
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
// all-pairs shortest fiber distances, the primary and alternate fiber routes
// per site pair, and the static reach adjacency. Everything here is a pure
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
	reachMask  []uint64
	reachMaskW bitset.Set
	maskW      int

	// The repair index. fiberPairs[fiberOff[f]:fiberOff[f+1]] lists, in
	// ascending order, the ordered pairs u*ns+v whose k-shortest-path answer
	// has fiber f on any of its kFiberPaths paths — including alternates the
	// tables then dropped for exceeding ReachKm, because a dropped path still
	// took a slot of the answer: lose it and the next candidate moves up into
	// pairAlts. tied holds the pairs whose answer met a tie (see
	// graph.Scratch.PathsTied). For every other pair, deleting a fiber its
	// paths do not use leaves pairDist, pairPath and pairAlts as they are.
	fiberOff   []int32
	fiberPairs []int32
	tied       bitset.Set
}

// The route-table cache. Building the tables is an all-pairs k-shortest-path
// sweep, by far the most expensive part of NewState, and one network is
// routinely given to several states: the controller core, the update planner
// and the control plane each hold one, and experiments evaluate many
// algorithms per topology cell. A small LRU makes every build after the first
// free; tables derived by WithoutFiber enter it under their reduced network
// (they share most rows with their parent, so a run of cuts displaces whole
// tables of networks no longer in use with entries that cost a fraction).
// It is keyed by Network identity, not content: a caller that builds an equal
// network afresh is asking for a fresh set-up. The cache is bounded so
// transient networks (one per figure cell) cannot accumulate; identical
// results from racing builders make the race benign, so the lock is dropped
// during the expensive build.
const routeCacheSize = 8

type routeCacheEntry struct {
	net *topology.Network
	rt  *routeTables
}

var (
	routeMu    sync.Mutex
	routeCache []routeCacheEntry
)

func lookupRouteTables(net *topology.Network) *routeTables {
	routeMu.Lock()
	for i, e := range routeCache {
		if e.net == net {
			copy(routeCache[1:i+1], routeCache[:i])
			routeCache[0] = e
			routeMu.Unlock()
			return e.rt
		}
	}
	routeMu.Unlock()
	rt := buildRouteTables(net)
	storeRouteTables(net, rt)
	return rt
}

func storeRouteTables(net *topology.Network, rt *routeTables) {
	routeMu.Lock()
	defer routeMu.Unlock()
	if len(routeCache) == routeCacheSize {
		routeCache = routeCache[:routeCacheSize-1]
	}
	routeCache = slices.Insert(routeCache, 0, routeCacheEntry{net, rt})
}

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
	return &rowBuilder{g: g, ns: net.NumSites(), reach: net.ReachKm, mark: make([]int32, maxFiberID(net)+1)}
}

// build fills row: one Dijkstra tree from the source for the distances and
// every first path, then the alternates of each destination. The routes of a
// row share one id array and one fiberRoute array, so a row costs a handful
// of allocations however many pairs it holds.
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
	n := b.g.KShortestFrom(&b.sc, &b.tree, v, kFiberPaths)
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
	ns := net.NumSites()
	rt := &routeTables{
		fiberGraph: net.FiberGraph(),
		pairDist:   make([][]float64, ns),
		pairPath:   make([][][]int, ns),
		pairAlts:   make([][][]fiberRoute, ns),
		inReach:    make([]bool, ns*ns),
		tied:       bitset.New(ns * ns),
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
	if ns <= 64 {
		rt.reachMask = make([]uint64, ns)
		for u := 0; u < ns; u++ {
			for v := 0; v < ns; v++ {
				if rt.inReach[u*ns+v] {
					rt.reachMask[u] |= 1 << uint(v)
				}
			}
		}
	} else {
		rt.reachMaskW = make(bitset.Set, ns*rt.maskW)
		for u := 0; u < ns; u++ {
			row := rt.reachMaskW[u*rt.maskW : (u+1)*rt.maskW]
			for v := 0; v < ns; v++ {
				if rt.inReach[u*ns+v] {
					row.Set(v)
				}
			}
		}
	}
	// Static regenerator reachability: one BFS per source over the reach
	// adjacency, expanding only through sites whose static regenerator pool
	// is nonzero (the source itself needs no regenerator to transmit).
	rt.regenReach = make(bitset.Set, ns*rt.maskW)
	queue := make([]int, 0, ns)
	seen := make([]bool, ns)
	for u := 0; u < ns; u++ {
		row := rt.regenReach[u*rt.maskW : (u+1)*rt.maskW]
		clear(seen)
		seen[u] = true
		queue = append(queue[:0], u)
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for v := 0; v < ns; v++ {
				if seen[v] || !rt.inReach[x*ns+v] {
					continue
				}
				seen[v] = true
				row.Set(v)
				if net.Sites[v].Regenerators > 0 {
					queue = append(queue, v)
				}
			}
		}
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

	nw := &routeTables{
		fiberGraph: net.FiberGraph(),
		pairDist:   slices.Clone(rt.pairDist),
		pairPath:   slices.Clone(rt.pairPath),
		pairAlts:   slices.Clone(rt.pairAlts),
		inReach:    rt.inReach,
		regenReach: rt.regenReach,
		reachMask:  rt.reachMask,
		reachMaskW: rt.reachMaskW,
		maskW:      rt.maskW,
		tied:       bitset.New(ns * ns),
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
