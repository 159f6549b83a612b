package graph

import (
	"math"
	"math/bits"
	"slices"
)

// Scratch holds the per-query buffers of the shortest-path routines so that
// repeated queries — the regenerator-route searches the optical layer issues
// for every circuit of every candidate topology, and the all-pairs
// k-shortest-path sweep behind its route tables — stop allocating fresh
// dist/seen/prev arrays, heaps and paths each time. A Scratch may be reused
// across graphs of different sizes (buffers grow monotonically) but must not
// be shared between goroutines.
type Scratch struct {
	// Buffers of the mask Dijkstra (MaskShortestNodeWeightedW); seen is its
	// visited bitset.
	dist []float64
	prev []Edge
	seen []uint64
	h    heap

	// Per-vertex state of the Graph searches (search), valid for the run
	// whose number is epoch: starting a run is one increment, not an O(n)
	// clear.
	vs    []vtx
	epoch uint32
	// The k-shortest-path kernel's working set (see KShortest): every path
	// of a query — results and pending candidates — is a span of arena, so a
	// query allocates nothing once the buffers have grown. banned holds the
	// deviation edges excluded from the current spur search, at most one per
	// result path, so a linear scan beats any hashed structure.
	arena  []Edge
	res    []span
	cand   []span
	banned []Edge
	tied   bool
}

// grow sizes the buffers for a graph with n vertices.
func (sc *Scratch) grow(n int) {
	if cap(sc.dist) < n {
		sc.dist = make([]float64, n)
		sc.prev = make([]Edge, n)
	}
	sc.dist = sc.dist[:n]
	sc.prev = sc.prev[:n]
}

// Reset reshapes the graph to n vertices with no edges while retaining the
// adjacency backing arrays, so rebuilding a transit graph of similar size
// allocates nothing in steady state.
func (g *Graph) Reset(n int) {
	if cap(g.adj) >= n {
		g.adj = g.adj[:n]
	} else {
		g.adj = append(g.adj[:cap(g.adj)], make([][]Edge, n-cap(g.adj))...)
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.n = n
}

// MaskShortestNodeWeightedW runs Dijkstra over the vertex set given by the
// set bits of nodeMask, where a directed edge u->v exists iff bit v of
// reach row u & nodeMask is set and carries the weight of its HEAD node,
// w[v] — the node-weighted transit-graph transform of the optical layer,
// evaluated without materializing the graph. reach holds `words` uint64 per
// vertex (bitset layout, row-major), nodeMask is one `words`-long bitset,
// and vertex ids run to 64*words. The vertex sequence src..dst is appended
// to hops; ok reports reachability.
//
// Results are bit-identical to building the transit graph over the same
// vertex set (neighbors enumerated in ascending id order) and running
// ShortestPathScratch on it: each reach row is scanned word-ascending then
// bit-ascending — ascending vertex id — so the push sequence this loop feeds
// the heap is value- and order-identical, the heap breaks distance ties
// purely by array position, and the relaxation test is the same strict
// comparison — so the same path falls out, just without the O(V²)
// edge-list build.
func MaskShortestNodeWeightedW(sc *Scratch, reach []uint64, words int, nodeMask []uint64, w []float64, src, dst int, hops []int) (_ []int, ok bool) {
	n := len(reach) / words
	sc.grow(n)
	dist, prev := sc.dist, sc.prev
	for wi, mw := range nodeMask {
		base := wi << 6
		for m := mw; m != 0; m &= m - 1 {
			v := base + bits.TrailingZeros64(m)
			dist[v] = math.Inf(1)
			prev[v].From = -1
		}
	}
	dist[src] = 0
	if cap(sc.seen) < words {
		sc.seen = make([]uint64, words)
	}
	seen := sc.seen[:words]
	clear(seen)
	sc.h = sc.h[:0]
	sc.h.push(item{src, 0})
	for len(sc.h) > 0 {
		it := sc.h.pop()
		if seen[it.v>>6]>>(uint(it.v)&63)&1 == 1 {
			continue
		}
		seen[it.v>>6] |= 1 << (uint(it.v) & 63)
		if it.v == dst {
			break
		}
		du := dist[it.v]
		row := reach[it.v*words : it.v*words+words]
		for wi := 0; wi < words; wi++ {
			m := row[wi] & nodeMask[wi]
			if m == 0 {
				continue
			}
			base := wi << 6
			for ; m != 0; m &= m - 1 {
				v := base + bits.TrailingZeros64(m)
				if nd := du + w[v]; nd < dist[v] {
					dist[v] = nd
					prev[v].From = it.v
					sc.h.push(item{v, nd})
				}
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return hops, false
	}
	i := len(hops)
	for v := dst; v != src; v = prev[v].From {
		hops = append(hops, v)
	}
	hops = append(hops, src)
	for a, b := i, len(hops)-1; a < b; a, b = a+1, b-1 {
		hops[a], hops[b] = hops[b], hops[a]
	}
	return hops, true
}

// vtx is one vertex's state in a Dijkstra run over a Graph.
type vtx struct {
	dist  float64
	from  int32  // tail of the tree arc into the vertex, -1 at the source
	arc   int32  // index of that arc in adj[from]
	epoch uint32 // run this entry belongs to; any other value reads as unreached
	done  bool   // settled (popped)
	// tie records that a second arc reached the vertex at exactly dist: which
	// of the two the tree holds then depends on the order they were relaxed
	// in, so it may change when an unrelated edge is deleted.
	tie bool
	// removed deletes the vertex from the graph for the searches of one spur
	// scan (the root-path vertices of Yen's algorithm). Unlike the fields
	// above it is not tied to epoch: the kernel sets and clears it.
	removed bool
}

// span is one path of a k-shortest-path query: n edges at arena[off:].
type span struct {
	off, n int32
	// dev is the index of the path's first edge that is not on the result
	// path it was derived from, result number parent (Lawler's bookkeeping;
	// -1 and 0 for the first path).
	dev, parent int32
	weight      float64
}

// search runs Dijkstra from src over g without the vertices flagged removed
// and without the arcs out of src listed in banned, leaving the tree in
// sc.vs. It stops once dst is settled; dst < 0 settles everything reachable.
// Ties are broken by insertion order (the heap compares distances only and
// relaxation is a strict test), which keeps results deterministic for a
// deterministically built graph.
//
// It also stops before settling anything farther than limit. Up to that point
// it is the unlimited run step for step — every push is still made, so the
// heap, and with it the order equal distances surface in, is the same — and a
// vertex it settles has the same tree path and tie flags.
func (g *Graph) search(sc *Scratch, src, dst int, banned []Edge, limit float64) {
	sc.fit(g.n)
	sc.epoch++
	if sc.epoch == 0 { // wrapped: entries stamped by runs 2^32 ago must not revive
		for i := range sc.vs {
			sc.vs[i].epoch = 0
		}
		sc.epoch = 1
	}
	vs, ep := sc.vs, sc.epoch
	vs[src] = vtx{from: -1, epoch: ep}
	sc.h = sc.h[:0]
	sc.h.push(item{src, 0})
	for len(sc.h) > 0 {
		it := sc.h.pop()
		if it.dist > limit {
			break
		}
		u := &vs[it.v]
		if u.done {
			continue
		}
		u.done = true
		if it.v == dst {
			break
		}
		du := u.dist
		// A banned edge is edge i of a path that follows the root to the spur
		// node, so it leaves src: no other vertex needs the scan.
		bn := banned
		if it.v != src {
			bn = nil
		}
		out := g.adj[it.v]
		for j := range out {
			e := &out[j]
			t := &vs[e.To]
			if t.removed || (bn != nil && bannedEdge(bn, *e)) {
				continue
			}
			if t.epoch != ep {
				*t = vtx{dist: math.Inf(1), from: -1, epoch: ep}
			}
			if nd := du + e.Weight; nd < t.dist {
				t.dist, t.from, t.arc, t.tie = nd, int32(it.v), int32(j), false
				sc.h.push(item{e.To, nd})
			} else if nd == t.dist {
				t.tie = true
			}
		}
	}
}

// fit sizes the per-vertex state for a graph with n vertices.
func (sc *Scratch) fit(n int) {
	if len(sc.vs) < n {
		sc.vs = make([]vtx, n)
	}
}

// reached reports whether the last search from sc settled v, and at what
// distance. A limited search can stop with v relaxed but not settled; its
// tentative distance is not an answer.
func (sc *Scratch) reached(v int) (float64, bool) {
	t := &sc.vs[v]
	if t.epoch != sc.epoch || !t.done {
		return math.Inf(1), false
	}
	return t.dist, true
}

// appendTreePath appends the tree path to dst of the last search run on
// tree to sc's arena, and reports whether any vertex on it was tied.
func (g *Graph) appendTreePath(sc, tree *Scratch, dst int) (tied bool) {
	start := len(sc.arena)
	for v := dst; tree.vs[v].from >= 0; v = int(tree.vs[v].from) {
		t := &tree.vs[v]
		sc.arena = append(sc.arena, g.adj[t.from][t.arc])
		tied = tied || t.tie
	}
	reverse(sc.arena[start:])
	return tied
}

func bannedEdge(banned []Edge, e Edge) bool {
	for _, b := range banned {
		if b.To == e.To && b.ID == e.ID && b.From == e.From {
			return true
		}
	}
	return false
}

// ShortestPathScratch is ShortestPath with caller-owned scratch buffers: the
// Dijkstra state lives in sc and only the returned *Path (which escapes to
// the caller) is freshly allocated. Results are identical to ShortestPath.
func (g *Graph) ShortestPathScratch(sc *Scratch, src, dst int) *Path {
	if g.KShortest(sc, src, dst, 1) == 0 {
		return nil
	}
	return sc.path(0)
}

// Tree is a single-source shortest-path tree over a Graph: the distances
// ShortestDistances returns plus the tree itself, from which KShortestFrom
// reads the first path to every destination. The zero value is ready for
// use, and reuse recycles its buffers.
type Tree struct {
	g  *Graph
	sc Scratch
}

// ShortestTree runs Dijkstra from src to every vertex, into t.
func (g *Graph) ShortestTree(t *Tree, src int) {
	g.ShortestTreeWithin(t, src, math.Inf(1))
}

// ShortestTreeWithin is ShortestTree stopped before settling any vertex
// farther than limit from src: the vertices within limit get the distances
// and tree paths of the full run, and every other one reads as unreachable.
func (g *Graph) ShortestTreeWithin(t *Tree, src int, limit float64) {
	t.g = g
	g.search(&t.sc, src, -1, nil, limit)
}

// Dist returns the distance from the tree's source to v (Inf if
// unreachable).
func (t *Tree) Dist(v int) float64 {
	d, _ := t.sc.reached(v)
	return d
}

// Arc returns the tree arc into v, the last edge of the tree path from the
// source to v; ok is false at the source and at every vertex the tree did not
// settle. Following Arc from v back to the source yields the first path
// KShortestFrom returns for v.
func (t *Tree) Arc(v int) (e Edge, ok bool) {
	x := &t.sc.vs[v]
	if _, settled := t.sc.reached(v); !settled || x.from < 0 {
		return Edge{}, false
	}
	return t.g.adj[x.from][x.arc], true
}

// KShortest computes up to k loopless shortest paths from src to dst in
// nondecreasing weight order (Yen's algorithm) and returns how many exist.
// The paths stay in sc — read them with PathWeight, PathEdges and PathsTied —
// until its next query; nothing is allocated once sc's buffers have grown.
//
// Spur searches filter root-path vertices and deviation edges inline during
// relaxation instead of materializing a filtered copy of the graph: they
// relax exactly the edges the copy would contain, in the same order, so ties
// break the same way. Candidates of equal weight are taken in discovery
// order.
func (g *Graph) KShortest(sc *Scratch, src, dst, k int) int {
	sc.reset()
	if k <= 0 {
		return 0
	}
	g.search(sc, src, dst, nil, math.Inf(1))
	if _, ok := sc.reached(dst); !ok {
		return 0
	}
	return g.yen(sc, sc, dst, k, math.Inf(1))
}

// KShortestFrom is KShortest from t's source with the first path read off t
// instead of searched for: the one Dijkstra run a per-source sweep already
// makes for its distances serves every destination. A search that stops at
// dst is a prefix of the full run, so the path and its tie flags are the
// same.
//
// bound caps the weight of the paths after the first: the first path is
// always returned, and the others are KShortest's, in its order, up to the
// first one heavier than bound (math.Inf(1) returns all k). Nothing heavier
// is worked for: there is no spur round when the first path already exceeds
// bound, a spur search stops expanding past bound less its root's weight,
// and the selection stops at the first candidate over bound. PathsTied then
// reports the ties met in building the returned paths and the candidates
// within reach of the bound.
func (g *Graph) KShortestFrom(sc *Scratch, t *Tree, dst, k int, bound float64) int {
	if t.g != g {
		panic("graph: KShortestFrom on a tree of another graph")
	}
	sc.reset()
	if k <= 0 {
		return 0
	}
	if _, ok := t.sc.reached(dst); !ok {
		return 0
	}
	return g.yen(sc, &t.sc, dst, k, bound)
}

func (sc *Scratch) reset() {
	sc.arena, sc.res, sc.cand, sc.tied = sc.arena[:0], sc.res[:0], sc.cand[:0], false
}

// PathWeight returns the weight of path i of the last k-shortest query.
func (sc *Scratch) PathWeight(i int) float64 { return sc.res[i].weight }

// PathEdges returns the edges of path i of the last k-shortest query. The
// slice aliases sc and is valid, read-only, until its next query.
func (sc *Scratch) PathEdges(i int) []Edge { return sc.edges(sc.res[i]) }

// PathsTied reports whether the last k-shortest query met a tie it had to
// break by order: a vertex of a path it built reached over two arcs at
// exactly the same distance, or a candidate within rounding of the one
// selected. Without one, deleting an edge that none of the returned paths
// uses leaves the answer unchanged — every tree arc on them is still the
// only one at its distance, and a candidate that loses the edge only gets
// longer, and one past a bound stays past it — which is what lets a caller
// that caches the answer keep it.
func (sc *Scratch) PathsTied() bool { return sc.tied }

func (sc *Scratch) edges(p span) []Edge { return sc.arena[p.off : p.off+p.n] }

func (sc *Scratch) path(i int) *Path {
	return &Path{Edges: append([]Edge(nil), sc.PathEdges(i)...), Weight: sc.res[i].weight}
}

// SelectSlack is the relative weight difference under which two candidates
// count as tied. The same path found from two spur nodes sums its weights in
// two orders and may differ in the last bits, so "equal" has to cover that.
const SelectSlack = 1e-9

// yen is the body of KShortest and KShortestFrom. The first path is the tree
// path to dst of the finished search in first (sc itself, or a Tree's
// scratch); later paths stop at the first one heavier than bound.
func (g *Graph) yen(sc, first *Scratch, dst, k int, bound float64) int {
	sc.fit(g.n)
	d0, _ := first.reached(dst)
	sc.tied = g.appendTreePath(sc, first, dst)
	sc.res = append(sc.res, span{n: int32(len(sc.arena)), parent: -1, weight: d0})
	if d0 > bound {
		return 1
	}
	// A spur search may stop past the bound padded by the slack: a candidate
	// at the bound sums its weight in another order than the search does.
	padded := bound * (1 + SelectSlack)
	for len(sc.res) < k {
		r := len(sc.res) - 1
		prev := sc.res[r]
		rootW := 0.0
		for i := 0; i < int(prev.n); i++ {
			pe := sc.edges(prev)
			root, spurNode := pe[:i], pe[i].From
			if i > 0 {
				rootW += pe[i-1].Weight
			}
			limit := padded - rootW
			if limit < 0 {
				break // roots only grow: no later spur can come back within the bound
			}
			// Ban edge i of every result path that follows the root. fresh:
			// a path found since prev's parent was scanned adds one.
			sc.banned = sc.banned[:0]
			fresh := false
			for q, p := range sc.res {
				if int(p.n) <= i || !sameRoute(sc.edges(p)[:i], root) {
					continue
				}
				if e := sc.edges(p)[i]; !bannedEdge(sc.banned, e) {
					sc.banned = append(sc.banned, e)
					fresh = fresh || q > int(prev.parent)
				}
			}
			// Lawler's skip: before prev's deviation point the root is its
			// parent's, and with no fresh ban so is the whole spur search —
			// its outcome is already among the candidates or results.
			if i >= int(prev.dev) || fresh {
				g.spur(sc, r, i, spurNode, dst, limit)
			}
			sc.vs[spurNode].removed = true
		}
		for _, e := range sc.edges(prev) {
			sc.vs[e.From].removed = false
		}
		if len(sc.cand) == 0 {
			break
		}
		best := 0
		for c, p := range sc.cand {
			if p.weight < sc.cand[best].weight {
				best = c
			}
		}
		sel := sc.cand[best]
		if sel.weight > bound {
			break
		}
		for c, p := range sc.cand {
			if c != best && p.weight <= sel.weight*(1+SelectSlack) {
				sc.tied = true
			}
		}
		sc.res = append(sc.res, sel)
		sc.cand = append(sc.cand[:best], sc.cand[best+1:]...)
	}
	return len(sc.res)
}

// spur searches for the best deviation from result path r at edge i, no
// farther than limit from the spur node, and files it as a candidate unless
// it is already known.
func (g *Graph) spur(sc *Scratch, r, i, spurNode, dst int, limit float64) {
	g.search(sc, spurNode, dst, sc.banned, limit)
	w, ok := sc.reached(dst)
	if !ok {
		return
	}
	start := len(sc.arena)
	sc.arena = append(sc.arena, sc.edges(sc.res[r])[:i]...)
	if g.appendTreePath(sc, sc, dst) {
		sc.tied = true
	}
	c := span{off: int32(start), n: int32(len(sc.arena) - start), dev: int32(i), parent: int32(r), weight: w}
	for _, e := range sc.arena[start : start+i] {
		c.weight += e.Weight
	}
	if sc.known(sc.cand, c) || sc.known(sc.res, c) {
		sc.arena = sc.arena[:start]
		return
	}
	sc.cand = append(sc.cand, c)
}

// sameRoute compares two edge sequences by endpoints and id.
func sameRoute(a, b []Edge) bool {
	for i, e := range b {
		if o := a[i]; o.To != e.To || o.ID != e.ID || o.From != e.From {
			return false
		}
	}
	return true
}

func (sc *Scratch) known(ps []span, c span) bool {
	ce := sc.edges(c)
	for _, p := range ps {
		if p.n == c.n && slices.Equal(sc.edges(p), ce) {
			return true
		}
	}
	return false
}

// KShortestPathsScratch is KShortestPaths with caller-owned scratch: only
// the returned paths are allocated.
func (g *Graph) KShortestPathsScratch(sc *Scratch, src, dst, k int) []*Path {
	n := g.KShortest(sc, src, dst, k)
	if n == 0 {
		return nil
	}
	out := make([]*Path, n)
	for i := range out {
		out[i] = sc.path(i)
	}
	return out
}
