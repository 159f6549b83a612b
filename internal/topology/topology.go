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
	"math"
	"slices"
	"sort"

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
	N     int
	Count map[[2]int]int
	// view is the (U, V)-sorted enumeration of Count, maintained
	// incrementally: built (with one sort) on the first AppendLinks and
	// patched in place by Add, so steady-state enumeration — the annealing
	// hot path keys and loads every candidate topology from it — is a plain
	// copy with no map walk and no sort. The sorted order over distinct
	// (U, V) keys is unique, so the view is byte-identical to a from-scratch
	// sort at all times (pinned by TestViewMatchesScratchSort). viewOK is
	// false until the view is built; mutations that bypass Add must
	// invalidate it (see Clear and UnmarshalJSON).
	view   []Link
	viewOK bool
}

// NewLinkSet returns an empty link multiset over n routers.
func NewLinkSet(n int) *LinkSet {
	return &LinkSet{N: n, Count: make(map[[2]int]int)}
}

func canon(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// Add inserts k parallel circuits between u and v.
func (ls *LinkSet) Add(u, v, k int) {
	if u == v {
		panic("topology: self link")
	}
	key := canon(u, v)
	c := ls.Count[key] + k
	if c < 0 {
		panic(fmt.Sprintf("topology: negative link count on %v", key))
	}
	if c == 0 {
		delete(ls.Count, key)
	} else {
		ls.Count[key] = c
	}
	if !ls.viewOK {
		return
	}
	// Patch the sorted view: binary-search the pair's slot, then update,
	// delete, or insert. The view stays exactly the (U, V)-sorted
	// enumeration of the map.
	i, found := slices.BinarySearchFunc(ls.view, Link{U: key[0], V: key[1]}, func(a, b Link) int {
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	})
	switch {
	case found && c == 0:
		ls.view = append(ls.view[:i], ls.view[i+1:]...)
	case found:
		ls.view[i].Count = c
	case c != 0:
		ls.view = slices.Insert(ls.view, i, Link{U: key[0], V: key[1], Count: c})
	}
}

// Clear removes every link, retaining the map and view buffers. Mutating
// Count directly would desynchronize the sorted view; this is the supported
// way to empty a reused LinkSet (optical's effective-topology scratch does).
func (ls *LinkSet) Clear() {
	clear(ls.Count)
	ls.view = ls.view[:0]
	ls.viewOK = true
}

// Get returns the number of parallel circuits between u and v.
func (ls *LinkSet) Get(u, v int) int { return ls.Count[canon(u, v)] }

// Degree returns the total number of circuits incident to v (== router
// ports in use at v).
func (ls *LinkSet) Degree(v int) int {
	d := 0
	for key, c := range ls.Count {
		if key[0] == v || key[1] == v {
			d += c
		}
	}
	return d
}

// Clone returns a deep copy. A built sorted view is copied too: annealing
// neighbors clone and then apply a few Adds, so the clone's enumerations
// stay sort-free.
func (ls *LinkSet) Clone() *LinkSet {
	c := NewLinkSet(ls.N)
	for k, v := range ls.Count {
		c.Count[k] = v
	}
	if ls.viewOK {
		c.view = append([]Link(nil), ls.view...)
		c.viewOK = true
	}
	return c
}

// CopyFrom makes ls an exact copy of src, reusing ls's map and view
// storage: the allocation-free Clone behind the core package's candidate
// recycling pool. The sorted-view state carries over exactly, so a recycled
// copy enumerates byte-identically to a fresh Clone.
func (ls *LinkSet) CopyFrom(src *LinkSet) {
	ls.N = src.N
	clear(ls.Count)
	for k, v := range src.Count {
		ls.Count[k] = v
	}
	ls.view = append(ls.view[:0], src.view...)
	ls.viewOK = src.viewOK
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
	return ls.AppendLinks(make([]Link, 0, len(ls.Count)))
}

// AppendLinks appends the aggregated links to buf in the same deterministic
// (U, V)-sorted order as Links and returns the extended slice. Passing
// buf[:0] of a retained buffer makes the enumeration allocation-free once
// the buffer has grown to the topology's link count, which is what the flat
// allocators in internal/alloc and internal/optical rely on in the
// annealing energy hot path. The first call builds the sorted view (one map
// walk and one sort); every later call — and every call on a Clone, however
// many Adds happened in between — is a plain copy.
func (ls *LinkSet) AppendLinks(buf []Link) []Link {
	if !ls.viewOK {
		ls.view = ls.view[:0]
		for k, c := range ls.Count {
			ls.view = append(ls.view, Link{U: k[0], V: k[1], Count: c})
		}
		slices.SortFunc(ls.view, func(a, b Link) int {
			if a.U != b.U {
				return a.U - b.U
			}
			return a.V - b.V
		})
		ls.viewOK = true
	}
	return append(buf, ls.view...)
}

// TotalCircuits returns the number of circuits summed over all links.
func (ls *LinkSet) TotalCircuits() int {
	t := 0
	for _, c := range ls.Count {
		t += c
	}
	return t
}

// Graph returns the network-layer graph with one edge per adjacency (not
// per circuit) and unit weights; edge IDs index into Links().
func (ls *LinkSet) Graph() *graph.Graph {
	g := graph.New(ls.N)
	for i, l := range ls.Links() {
		g.AddUndirected(l.U, l.V, 1, i)
	}
	return g
}

// Equal reports whether two link sets contain exactly the same multiset.
func (ls *LinkSet) Equal(o *LinkSet) bool {
	if ls.N != o.N || len(ls.Count) != len(o.Count) {
		return false
	}
	for k, v := range ls.Count {
		if o.Count[k] != v {
			return false
		}
	}
	return true
}

// Diff returns the number of circuit additions plus removals needed to turn
// ls into o. This is the "optical churn" a reconfiguration would incur.
func (ls *LinkSet) Diff(o *LinkSet) int {
	d := 0
	seen := map[[2]int]bool{}
	for k, v := range ls.Count {
		seen[k] = true
		d += abs(v - o.Count[k])
	}
	for k, v := range o.Count {
		if !seen[k] {
			d += v
		}
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

// CircuitLengthKm returns the shortest fiber-path length between two sites,
// or +Inf if disconnected. It is the minimum unregenerated span a circuit
// between them would need.
func (n *Network) CircuitLengthKm(u, v int) float64 {
	d := n.FiberGraph().ShortestDistances(u)
	return d[v]
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
func (n *Network) PlaceRegenerators(poolSize int) {
	ns := len(n.Sites)
	fg := n.FiberGraph()
	// dist[i][j]: shortest fiber distance.
	dist := make([][]float64, ns)
	for i := 0; i < ns; i++ {
		dist[i] = fg.ShortestDistances(i)
	}
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
	// reachable reports whether all pairs can be connected stopping only at
	// the chosen concentration sites.
	reachOK := func(chosen map[int]bool) bool {
		// Build reach graph over all sites, but intermediate hops must be
		// chosen sites. Check pairwise via BFS allowing only chosen interior
		// nodes.
		for s := 0; s < ns; s++ {
			visited := make([]bool, ns)
			queue := []int{s}
			visited[s] = true
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for w := 0; w < ns; w++ {
					if visited[w] || dist[v][w] > n.ReachKm {
						continue
					}
					visited[w] = true
					if chosen[w] { // may continue through a regenerator site
						queue = append(queue, w)
					}
				}
			}
			for tgt := 0; tgt < ns; tgt++ {
				if !visited[tgt] {
					return false
				}
			}
		}
		return true
	}

	chosen := map[int]bool{}
	if !reachOK(chosen) {
		for _, cand := range order {
			chosen[cand] = true
			if reachOK(chosen) {
				break
			}
		}
	}
	for s := range chosen {
		n.Sites[s].Regenerators = poolSize
	}
}

// MaxFiberKm returns the longest single fiber span.
func (n *Network) MaxFiberKm() float64 {
	m := 0.0
	for _, f := range n.Fibers {
		m = math.Max(m, f.LengthKm)
	}
	return m
}
