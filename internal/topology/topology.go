// Package topology models the two layers of a software-defined optical WAN:
// the physical (fiber) layer of sites, fibers, ROADM ports, and regenerator
// pools, and the network (packet) layer of router-to-router links realized
// by optical circuits.
//
// Builders are provided for the three evaluation topologies from the Owan
// paper: Internet2 (9 sites), a synthetic ISP backbone (~40 sites, irregular
// mesh), and an inter-datacenter WAN (~25 sites, super cores in a ring).
package topology

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"owan/internal/bitset"
	"owan/internal/graph"
)

// Site is a point of presence: one ROADM, an optional router, a pool of
// regenerators, and a number of WAN-facing router ports.
type Site struct {
	ID           int
	Name         string
	RouterPorts  int // fp_v: router ports connected to ROADM add/drop ports
	Regenerators int // rg_v: pre-deployed regenerators
	HasRouter    bool
}

// Fiber is an undirected fiber pair between two sites carrying up to
// Wavelengths wavelengths in each direction.
type Fiber struct {
	ID          int
	A, B        int
	LengthKm    float64
	Wavelengths int // φ
}

// Network is the physical infrastructure plus the optical constants.
type Network struct {
	Name      string
	Sites     []Site
	Fibers    []Fiber
	ThetaGbps float64 // θ: capacity of one wavelength (== one circuit == one port)
	ReachKm   float64 // η: optical reach before regeneration is required

	memo *memo // see Memo
}

// memo holds what Memo has computed for one *Network. owner is that Network:
// a struct copy carries the pointer along but is not its owner, so it starts
// empty — the copy may have been edited since.
type memo struct {
	owner *Network
	vals  map[any]*memoEntry
}

type memoEntry struct {
	once sync.Once
	val  any
}

// memoMu guards the memo of every Network. It is held only to find an entry;
// the entry's Once runs the build, so a long build for one network holds up
// no other.
var memoMu sync.Mutex

// Memo returns build's result for n under key, computing it on the first call
// for this *Network and key; later calls, concurrent ones included, wait for
// and share that result. It is kept with n and becomes garbage with it, so
// derived data — the optical layer's route tables, and the copies of n it
// cuts one fiber from — costs nothing once its network is gone. The memo is per pointer, not per content: an equal
// network built afresh, or a struct copy (whose fields may since have been
// changed), computes its own. A copy does keep the original's memo reachable
// until its own first Memo call. The network must not be modified once
// Memo has been called on it, and build must not call Memo on n with key.
func (n *Network) Memo(key any, build func() any) any {
	memoMu.Lock()
	if n.memo == nil || n.memo.owner != n {
		n.memo = &memo{owner: n, vals: map[any]*memoEntry{}}
	}
	e := n.memo.vals[key]
	if e == nil {
		e = new(memoEntry)
		n.memo.vals[key] = e
	}
	memoMu.Unlock()
	e.once.Do(func() { e.val = build() })
	return e.val
}

// NumSites returns the number of sites.
func (n *Network) NumSites() int { return len(n.Sites) }

// FiberGraph returns the fiber-layer graph weighted by fiber length. Edge
// IDs are fiber IDs.
func (n *Network) FiberGraph() *graph.Graph {
	g := graph.New(len(n.Sites))
	for _, f := range n.Fibers {
		g.AddUndirected(f.A, f.B, f.LengthKm, f.ID)
	}
	return g
}

// WithoutFiber returns a copy of the network that lacks the fiber with the
// given id (failure handling, §3.4). Sites and every other fiber — ids and
// order included — are shared with or copied from the receiver unchanged.
// ok is false, and the receiver itself is returned, when no fiber has the id.
func (n *Network) WithoutFiber(id int) (_ *Network, ok bool) {
	idx := slices.IndexFunc(n.Fibers, func(f Fiber) bool { return f.ID == id })
	if idx < 0 {
		return n, false
	}
	clone := *n
	clone.Fibers = append(append([]Fiber(nil), n.Fibers[:idx]...), n.Fibers[idx+1:]...)
	clone.memo = nil // the copy must not keep the receiver's derived data alive
	return &clone, true
}

// Validate checks structural invariants: fiber endpoints in range, positive
// lengths and wavelength counts, connectivity, and at least one router port
// per router site.
func (n *Network) Validate() error {
	for _, f := range n.Fibers {
		if f.A < 0 || f.A >= len(n.Sites) || f.B < 0 || f.B >= len(n.Sites) || f.A == f.B {
			return fmt.Errorf("fiber %d has bad endpoints (%d,%d)", f.ID, f.A, f.B)
		}
		if f.LengthKm <= 0 {
			return fmt.Errorf("fiber %d has nonpositive length", f.ID)
		}
		if f.Wavelengths <= 0 {
			return fmt.Errorf("fiber %d has nonpositive wavelength count", f.ID)
		}
	}
	if n.ThetaGbps <= 0 {
		return fmt.Errorf("theta must be positive, got %v", n.ThetaGbps)
	}
	if n.ReachKm <= 0 {
		return fmt.Errorf("optical reach must be positive, got %v", n.ReachKm)
	}
	if !n.FiberGraph().Connected() {
		return fmt.Errorf("fiber graph is not connected")
	}
	for _, s := range n.Sites {
		if s.HasRouter && s.RouterPorts <= 0 {
			return fmt.Errorf("site %s has a router but no WAN ports", s.Name)
		}
	}
	return nil
}

// TotalPorts returns the sum of WAN-facing router ports over all sites.
func (n *Network) TotalPorts() int {
	t := 0
	for _, s := range n.Sites {
		t += s.RouterPorts
	}
	return t
}

// LinkSet is a network-layer topology: a multiset of undirected router-to-
// router links, each carrying one circuit's worth of capacity (θ). The
// simulated-annealing search in internal/core uses LinkSet as its state.
type LinkSet struct {
	N int
	// count indexes the multiset for Get and Add: canonical (u < v) pair ->
	// circuit count, zero counts deleted.
	count map[[2]int]int
	// view is the (U, V)-sorted enumeration of count, always valid: empty
	// from NewLinkSet, patched in place by Add, emptied by Clear and copied
	// by Clone and CopyFrom. Every enumeration — AppendLinks, Diff, Equal,
	// AppendKey, Degree — reads it with no map walk and no sort, and no read
	// method writes, so concurrent readers need no lock. The sorted order
	// over distinct (U, V) keys is unique, so the view is byte-identical to
	// a from-scratch sort of the map at all times (pinned by
	// TestViewMatchesScratchSort).
	view []Link
	// total is the sum of view's counts, maintained by Add.
	total int
}

// NewLinkSet returns an empty link multiset over n routers.
func NewLinkSet(n int) *LinkSet {
	return &LinkSet{N: n, count: make(map[[2]int]int)}
}

func canon(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// cmpPair orders links by (U, V), the view's order.
func cmpPair(a, b Link) int {
	if a.U != b.U {
		return a.U - b.U
	}
	return a.V - b.V
}

// Add inserts k parallel circuits between u and v.
func (ls *LinkSet) Add(u, v, k int) {
	if u == v {
		panic("topology: self link")
	}
	key := canon(u, v)
	c := ls.count[key] + k
	if c < 0 {
		panic(fmt.Sprintf("topology: negative link count on %v", key))
	}
	if c == 0 {
		delete(ls.count, key)
	} else {
		ls.count[key] = c
	}
	ls.total += k
	// Patch the sorted view: binary-search the pair's slot, then update,
	// delete, or insert.
	i, found := slices.BinarySearchFunc(ls.view, Link{U: key[0], V: key[1]}, cmpPair)
	switch {
	case found && c == 0:
		ls.view = append(ls.view[:i], ls.view[i+1:]...)
	case found:
		ls.view[i].Count = c
	case c != 0:
		ls.view = slices.Insert(ls.view, i, Link{U: key[0], V: key[1], Count: c})
	}
}

// Clear removes every link, retaining the map and view buffers: the way to
// empty a reused LinkSet (optical's effective-topology scratch does).
func (ls *LinkSet) Clear() {
	clear(ls.count)
	ls.view = ls.view[:0]
	ls.total = 0
}

// Get returns the number of parallel circuits between u and v.
func (ls *LinkSet) Get(u, v int) int { return ls.count[canon(u, v)] }

// Degree returns the total number of circuits incident to v (== router
// ports in use at v).
func (ls *LinkSet) Degree(v int) int {
	d := 0
	for _, l := range ls.view {
		if l.U == v || l.V == v {
			d += l.Count
		}
	}
	return d
}

// Clone returns a deep copy, sorted view included: annealing neighbors
// clone and then apply a few Adds. The map is sized for the copy up front,
// so it never grows on the way.
func (ls *LinkSet) Clone() *LinkSet {
	c := &LinkSet{count: make(map[[2]int]int, len(ls.count))}
	c.CopyFrom(ls)
	return c
}

// CopyFrom makes ls an exact copy of src, reusing ls's map and view
// storage: the allocation-free Clone behind the core package's candidate
// recycling pool.
func (ls *LinkSet) CopyFrom(src *LinkSet) {
	ls.N = src.N
	clear(ls.count)
	for k, v := range src.count {
		ls.count[k] = v
	}
	ls.view = append(ls.view[:0], src.view...)
	ls.total = src.total
}

// Link is one aggregated network-layer adjacency with its circuit count.
type Link struct {
	U, V  int
	Count int
}

// Links returns the aggregated links in deterministic order, sorted by
// (U, V) ascending.
//
// Ownership contract: the returned slice is freshly allocated on every call
// and owned by the caller, who may sort, truncate, or otherwise mutate it
// freely without affecting the LinkSet or any other caller
// (optical.ProvisionTopology relies on this when it orders the links it
// provisions). Callers on an allocation-sensitive path should use
// AppendLinks with a reused buffer instead.
func (ls *LinkSet) Links() []Link {
	return ls.AppendLinks(make([]Link, 0, len(ls.view)))
}

// AppendLinks appends the aggregated links to buf in the same deterministic
// (U, V)-sorted order as Links and returns the extended slice: a plain copy
// of the sorted view. Passing buf[:0] of a retained buffer makes the
// enumeration allocation-free once the buffer has grown to the topology's
// link count, which is what the flat allocators in internal/alloc and
// internal/optical rely on in the annealing energy hot path.
func (ls *LinkSet) AppendLinks(buf []Link) []Link {
	return append(buf, ls.view...)
}

// TotalCircuits returns the number of circuits summed over all links.
func (ls *LinkSet) TotalCircuits() int { return ls.total }

// Graph returns the network-layer graph with one edge per adjacency (not
// per circuit) and unit weights; edge IDs index into Links().
func (ls *LinkSet) Graph() *graph.Graph {
	g := graph.New(ls.N)
	for i, l := range ls.view {
		g.AddUndirected(l.U, l.V, 1, i)
	}
	return g
}

// Equal reports whether two link sets contain exactly the same multiset.
func (ls *LinkSet) Equal(o *LinkSet) bool {
	return ls.N == o.N && slices.Equal(ls.view, o.view)
}

// Diff returns the number of circuit additions plus removals needed to turn
// ls into o. This is the "optical churn" a reconfiguration would incur. It
// is one linear merge of the two sorted views and allocates nothing.
func (ls *LinkSet) Diff(o *LinkSet) int {
	a, b := ls.view, o.view
	d, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := cmpPair(a[i], b[j]); {
		case c < 0:
			d += a[i].Count
			i++
		case c > 0:
			d += b[j].Count
			j++
		default:
			d += abs(a[i].Count - b[j].Count)
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		d += a[i].Count
	}
	for ; j < len(b); j++ {
		d += b[j].Count
	}
	return d
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// PortViolations counts circuits exceeding any site's port budget.
func (ls *LinkSet) PortViolations(net *Network) int {
	v := 0
	for i, s := range net.Sites {
		if d := ls.Degree(i); d > s.RouterPorts {
			v += d - s.RouterPorts
		}
	}
	return v
}

// PlaceRegenerators greedily selects regenerator concentration sites and
// assigns pools of the given size so that between any two sites there is a
// path in the "reach graph" (sites within optical reach of each other via
// shortest fiber paths) that only stops at concentration sites. This follows
// the regenerator-site-concentration practice the paper cites (Bathula et
// al.): operators pre-deploy regenerators at a few hub sites.
//
// Sites are considered in decreasing fiber-degree order (hubs first); a site
// is added until the reach property holds for all pairs.
//
// The reach graph is one bitset row per site, from a shortest-path search
// that stops at ReachKm, and the check is a word-parallel search per source
// over those rows: O(n² · words) per candidate.
func (n *Network) PlaceRegenerators(poolSize int) {
	ns := len(n.Sites)
	reach := n.reachRows()
	deg := make([]int, ns)
	for _, f := range n.Fibers {
		deg[f.A]++
		deg[f.B]++
	}
	order := make([]int, ns)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if deg[order[a]] != deg[order[b]] {
			return deg[order[a]] > deg[order[b]]
		}
		return order[a] < order[b]
	})

	for i := range n.Sites {
		n.Sites[i].Regenerators = 0
	}
	// reachOK reports whether all pairs can be connected stopping only at
	// the chosen concentration sites.
	seen, done := bitset.New(ns), bitset.New(ns)
	reachOK := func(chosen bitset.Set) bool {
		for s := 0; s < ns; s++ {
			bitset.Closure(seen, done, reach, chosen, s)
			if seen.Count() != ns {
				return false
			}
		}
		return true
	}

	chosen := bitset.New(ns)
	if !reachOK(chosen) {
		for _, cand := range order {
			chosen.Set(cand)
			if reachOK(chosen) {
				break
			}
		}
	}
	chosen.ForEach(func(s int) { n.Sites[s].Regenerators = poolSize })
}

// reachRows returns the reach graph as bitset rows, Words(n) words per site:
// bit w of site v's row is set unless the shortest fiber route from v to w is
// longer than ReachKm. Each row is one shortest-path search from v that stops
// at ReachKm; what it settles carries the full search's distances, and what
// it leaves unsettled is past reach or cut off. The test is !(d > ReachKm),
// not d <= ReachKm, so that a NaN reach covers every site; an unsettled site
// reads as +Inf, which an infinite reach covers.
func (n *Network) reachRows() []uint64 {
	ns := len(n.Sites)
	words := bitset.Words(ns)
	fg := n.FiberGraph()
	rows := make([]uint64, ns*words)
	var t graph.Tree
	for v := 0; v < ns; v++ {
		fg.ShortestTreeWithin(&t, v, n.ReachKm)
		row := bitset.Set(rows[v*words : (v+1)*words])
		for w := 0; w < ns; w++ {
			if !(t.Dist(w) > n.ReachKm) {
				row.Set(w)
			}
		}
	}
	return rows
}
