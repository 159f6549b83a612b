// Package optical models the optical layer of a software-defined WAN: the
// per-fiber wavelength inventory, per-site regenerator pools, and the
// provisioning of optical circuits under the three WAN-specific constraints
// the paper identifies (ROADM port budgets, optical reach with regenerators,
// and wavelength capacity/distinctness per fiber).
//
// Circuit provisioning follows Algorithm 3 of the paper: build a
// "regenerator graph" whose nodes are the circuit endpoints plus every site
// with spare regenerators and whose edges connect sites whose shortest fiber
// path is within optical reach; weight nodes by the inverse of their
// remaining regenerators (to balance consumption); transform node weights to
// edge weights in a directed graph; and pick feasible shortest paths,
// checking wavelength availability hop by hop.
//
// Because the annealing search provisions thousands of candidate topologies
// per slot, the mutable occupancy is kept flat (wavelength bitsets and
// regenerator counts in dense slices indexed by fiber/site id), the static
// reach adjacency is precomputed once in NewState, and every per-circuit
// working buffer (regenerator transit graph, Dijkstra scratch, wavelength
// scan sets) lives in a per-State scratch area that is reused across calls.
package optical

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"owan/internal/bitset"
	"owan/internal/graph"
	"owan/internal/topology"
)

// Static errors for the provisioning hot path: annealing probes millions of
// infeasible candidates, and a fmt.Errorf per failure was a measurable slice
// of the tempered benchmarks' allocations. The pair is recoverable from the
// call site; no caller dispatches on the message.
var (
	errSegmentInfeasible = errors.New("optical: segment became infeasible")
	errNoRegenRoute      = errors.New("optical: no regenerator route within reach")
	errExhausted         = errors.New("optical: no buildable circuit (wavelengths exhausted)")
)

// waveSet is a bitset over wavelength indices of a fiber.
type waveSet []uint64

func newWaveSet(n int) waveSet { return make(waveSet, (n+63)/64) }

func (w waveSet) set(i int)   { w[i/64] |= 1 << (i % 64) }
func (w waveSet) clear(i int) { w[i/64] &^= 1 << (i % 64) }

// popcount returns the number of set bits.
func (w waveSet) popcount() int {
	c := 0
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return c
}

// Segment is one regeneration-free span of a circuit: a fiber path and the
// wavelength it occupies on every fiber of that path.
type Segment struct {
	// FiberIDs aliases the State's immutable precomputed fiber-route
	// tables; callers must treat it as read-only.
	FiberIDs   []int
	Wavelength int
	LengthKm   float64
}

// Circuit is a provisioned optical circuit realizing one network-layer link.
type Circuit struct {
	ID         int
	Src, Dst   int
	Segments   []Segment
	RegenSites []int // intermediate sites where the signal is regenerated
}

// LengthKm returns the total fiber length of the circuit.
func (c *Circuit) LengthKm() float64 {
	t := 0.0
	for _, s := range c.Segments {
		t += s.LengthKm
	}
	return t
}

// State is the mutable occupancy of the optical layer for one Network.
type State struct {
	net *topology.Network
	// rt is where the route tables below come from; WithoutFiber derives the
	// next state's tables from it.
	rt *routeTables
	// fiberUse and fiberWaves are indexed by fiber ID (ids survive
	// removals, so the slices are sized to the maximum id; removed ids
	// hold a nil set and zero wavelengths).
	fiberUse   []waveSet
	fiberWaves []int
	// fiberFree is the wavelength-availability index: bit λ of fiberFree[f]
	// is set iff λ < fiberWaves[f] and fiberUse[f] does not hold λ — the
	// free wavelengths of the fiber as ready-to-intersect words. fiberFree0
	// is its empty-network image (the per-fiber capacity mask), immutable
	// and shared by clones; free = fiberFree0 &^ fiberUse always. Both are
	// maintained at the single wavelength mutation points claimWave/freeWave
	// (plus the bulk image in Reset), mirroring how setRegen
	// maintains regenAvail/wRegen, so routeLambda intersects a handful of
	// words instead of probing fiberUse bit by bit. waveEpoch counts
	// wavelength-bit mutations; the per-pair segment cache in provScratch
	// validates against it (an unchanged epoch means no recompute can
	// disagree with the cached answer).
	fiberFree  []waveSet
	fiberFree0 []waveSet
	waveEpoch  uint64
	regenFree  []int // remaining regenerators per site
	// regenAvail and wRegen are the persistent compacted form of the
	// regenerator-transit-graph vertex set that findRegenRoute's mask
	// Dijkstra consumes: bit v of regenAvail is set iff regenFree[v] > 0,
	// and wRegen[v] caches that site's node weight (1/regenFree[v] + 1e-6,
	// or 1 under the unit-weights ablation; garbage where the bit is clear).
	// Both are maintained incrementally at every pool mutation (setRegen and
	// the bulk images below), so a route query no longer rebuilds the vertex
	// set and weights with an O(n) scan — the same persistent-frontier idea
	// as the allocator's resumable rows in internal/alloc.
	// regenAvail0/wRegen0 are the Reset images, precomputed from the static
	// pools so Reset restores the caches with two copies.
	regenAvail  bitset.Set
	wRegen      []float64
	regenAvail0 bitset.Set
	wRegen0     []float64
	// directOnly is a provisioning audit flag: true while every
	// findRegenRoute call since the last Reset was answered by the
	// direct-segment fast path on the pair's PRIMARY fiber route (a single
	// unregenerated span, no alternate route, no regenerator graph). Such a
	// run consulted nothing but the primary route tables and the wavelength
	// occupancy those same routes produced — the property the migration of
	// internal/core's memoized effective links on fiber failure needs (see
	// SameDirectRouting).
	directOnly bool
	// segmentOnly is the weaker audit tier: true while every findRegenRoute
	// call since the last Reset was answered by the direct-segment fast path
	// — on the pair's PRIMARY route or one of its precomputed ALTERNATES —
	// without ever consulting the regenerator graph. Such a run's decisions
	// depend only on the pair route tables and the wavelength occupancy those
	// routes produced, so it stays replayable across a fiber removal whenever
	// both tables survive intact (see SameSegmentRouting). directOnly implies
	// segmentOnly.
	segmentOnly bool
	circuits    map[int]*Circuit
	nextID      int
	// unitRegenWeights disables the inverse-remaining regenerator
	// balancing (ablation knob): every regenerator site weighs 1.
	unitRegenWeights bool
	fiberGraph       *graph.Graph
	// pairDist[u][v] is the shortest fiber distance; pairPath[u][v] the
	// corresponding fiber-ID sequence; pairAlts[u][v] up to kFiberPaths-1
	// in-reach alternative fiber routes tried when the primary has no free
	// wavelength. Precomputed once: the fiber layer is static. A pair past
	// the padded reach holds pastReach and no routes (see routeTables).
	pairDist [][]float64
	pairPath [][][]int
	pairAlts [][][]fiberRoute
	// inReach[u*ns+v] caches pairDist[u][v] <= ReachKm && pairPath[u][v]
	// != nil: whether a single unregenerated segment u->v can exist. This
	// is the static reach adjacency of the regenerator transit graph,
	// probed O(n²) times per findRegenRoute.
	inReach []bool
	// regenReach holds one maskW-word bitset row per source site: bit v of
	// row u reports whether a circuit u->v can be provisioned on an EMPTY
	// network — some hop sequence exists in which every hop is within
	// optical reach and every interior site has a nonzero static regenerator
	// pool. A pair failing this test fails in every provisioning order and
	// under any occupancy, which the delta trust gate exploits: a statically
	// infeasible circuit is an order-independent shortfall, not a resource
	// signal.
	regenReach bitset.Set
	// reachMaskW packs row u of inReach into a maskW-word bitset row: the
	// transit-graph adjacency as bitmasks, consumed by
	// graph.MaskShortestNodeWeightedW so the common regenerator-route query
	// never materializes the transit graph.
	reachMaskW bitset.Set
	maskW      int // words per bitset row (bitset.Words(ns))
	// scratch holds the reusable per-circuit working buffers. It is owned
	// by this State alone: Clone gives each clone a fresh lazy scratch, so
	// clones stay safe to use concurrently.
	scratch *provScratch
}

// provScratch is the per-State scratch area for provisioning. Everything
// here is working memory whose contents are dead between exported calls;
// buffers grow monotonically and are reused.
type provScratch struct {
	nodes     []int           // regenerator-graph node list
	nodeMaskW bitset.Set      // vertex set of the mask Dijkstra
	reached   bitset.Set      // sites exhaustedFrom has reached
	stack     []int           // exhaustedFrom's sites still to expand
	need      []int           // per-site regenerator need (routeBuildable)
	hops      []int           // hopsOf result buffer
	tg        *graph.Graph    // regenerator transit graph, Reset per route
	sp        graph.Scratch   // Dijkstra/Yen scratch for tg
	links     []topology.Link // AppendLinks buffer (ProvisionEffectiveEnum)
	effLinks  []topology.Link // effective enumeration (ProvisionEffectiveEnum)
	// Per-ordered-pair segment-feasibility cache over the precomputed
	// primary/alternate fiber routes: segStamp[u*ns+v] holds the waveEpoch
	// at which segAns[u*ns+v] was computed, and the answer is valid exactly
	// while the epoch is unchanged (no wavelength bit flipped anywhere, so a
	// recompute would gather the same free words). segAns packs the route
	// choice and wavelength as (routeIdx+2)<<16 | λ, routeIdx -1 = primary,
	// k >= 0 = alternate k, -2 = infeasible (λ field 0). Allocated lazily on
	// first segmentFeasible call; scratch-resident, so clones start cold.
	segStamp []uint64
	segAns   []int32
}

// NewState builds an empty optical state for the network. Its route tables
// are built on the first NewState for that *Network and kept with it, so
// later states on the same network share them and they are freed with it.
func NewState(net *topology.Network) *State {
	return newState(net, tablesOf(net, func() *routeTables { return buildRouteTables(net) }))
}

// WithoutFiber returns an empty optical state, as NewState builds it, for
// the receiver's network less the given fiber (failure handling, §3.4); its
// network is a copy, see Network. The route tables are derived from the
// receiver's by repair — only the site pairs whose fiber routes could have
// involved the fiber are recomputed, the rest is shared — where NewState on
// a reduced copy of the network would run the whole all-pairs sweep again.
// Occupancy and ablation settings of the receiver are not carried over. If
// the network has no such fiber the result is a fresh state on that same
// network. The reduced network is kept with the receiver's (cutKey): every
// state on one network cut at one fiber gets the same copy and tables.
func (s *State) WithoutFiber(fiberID int) *State {
	if !slices.ContainsFunc(s.net.Fibers, func(f topology.Fiber) bool { return f.ID == fiberID }) {
		return newState(s.net, s.rt)
	}
	net := s.net.Memo(cutKey{fiberID}, func() any {
		net, _ := s.net.WithoutFiber(fiberID)
		return net
	}).(*topology.Network)
	return newState(net, tablesOf(net, func() *routeTables { return s.rt.withoutFiber(net, fiberID) }))
}

// Network returns the physical network the state was built for.
func (s *State) Network() *topology.Network { return s.net }

func newState(net *topology.Network, rt *routeTables) *State {
	ns := net.NumSites()
	maxID := maxFiberID(net)
	s := &State{
		net:        net,
		rt:         rt,
		fiberUse:   make([]waveSet, maxID+1),
		fiberWaves: make([]int, maxID+1),
		regenFree:  make([]int, ns),
		circuits:   make(map[int]*Circuit),
		fiberGraph: rt.fiberGraph,
		pairDist:   rt.pairDist,
		pairPath:   rt.pairPath,
		pairAlts:   rt.pairAlts,
		inReach:    rt.inReach,
		regenReach: rt.regenReach,
		reachMaskW: rt.reachMaskW,
		maskW:      rt.maskW,
	}
	s.fiberFree = make([]waveSet, maxID+1)
	s.fiberFree0 = make([]waveSet, maxID+1)
	for _, f := range net.Fibers {
		s.fiberUse[f.ID] = newWaveSet(f.Wavelengths)
		s.fiberWaves[f.ID] = f.Wavelengths
		mask := newWaveSet(f.Wavelengths)
		for l := 0; l < f.Wavelengths; l++ {
			mask.set(l)
		}
		s.fiberFree0[f.ID] = mask
		s.fiberFree[f.ID] = append(waveSet(nil), mask...)
	}
	s.waveEpoch = 1 // nonzero so zero-valued cache stamps never validate
	for i, site := range net.Sites {
		s.regenFree[i] = site.Regenerators
	}
	s.regenAvail = bitset.New(ns)
	s.wRegen = make([]float64, ns)
	s.regenAvail0 = bitset.New(ns)
	s.wRegen0 = make([]float64, ns)
	s.rebuildRegenCaches()
	s.directOnly = true
	s.segmentOnly = true
	return s
}

// claimWave is the single incremental mutation point for occupying a
// wavelength: it keeps the occupancy set and the free-word index in sync and
// advances the availability epoch that invalidates the per-pair segment
// cache. Every wavelength claim in the package — cold provisioning, snapshot
// builds, delta applies and reverts — funnels through here or freeWave, so
// fiberFree == fiberFree0 &^ fiberUse is a package invariant (asserted by
// the randomized index property test).
func (s *State) claimWave(f, l int) {
	s.fiberUse[f].set(l)
	s.fiberFree[f].clear(l)
	s.waveEpoch++
}

// freeWave is claimWave's inverse: the single mutation point for returning a
// wavelength to the pool.
func (s *State) freeWave(f, l int) {
	s.fiberUse[f].clear(l)
	s.fiberFree[f].set(l)
	s.waveEpoch++
}

// setRegen is the single incremental mutation point for a site's regenerator
// pool: it keeps regenFree, the availability mask, and the weight cache in
// sync. Reset, the bulk pool update, restores the caches from precomputed
// images instead.
func (s *State) setRegen(v, n int) {
	s.regenFree[v] = n
	if n > 0 {
		s.regenAvail.Set(v)
		if s.unitRegenWeights {
			s.wRegen[v] = 1
		} else {
			s.wRegen[v] = 1/float64(n) + 1e-6
		}
	} else {
		s.regenAvail.Clear(v)
	}
}

// rebuildRegenCaches recomputes the live availability mask and weight cache
// from the current pools, and the Reset images from the static pools. Called
// from NewState and when the weight formula changes (SetUnitRegenWeights);
// everything else maintains the caches incrementally.
func (s *State) rebuildRegenCaches() {
	s.regenAvail.Zero()
	for v, n := range s.regenFree {
		if n > 0 {
			s.regenAvail.Set(v)
			if s.unitRegenWeights {
				s.wRegen[v] = 1
			} else {
				s.wRegen[v] = 1/float64(n) + 1e-6
			}
		}
	}
	s.regenAvail0.Zero()
	for v, site := range s.net.Sites {
		if site.Regenerators > 0 {
			s.regenAvail0.Set(v)
			if s.unitRegenWeights {
				s.wRegen0[v] = 1
			} else {
				s.wRegen0[v] = 1/float64(site.Regenerators) + 1e-6
			}
		}
	}
}

// scratchBuf returns the State's scratch area, allocating it on first use
// (clones start without one, so cloning stays cheap).
func (s *State) scratchBuf() *provScratch {
	if s.scratch == nil {
		s.scratch = &provScratch{
			need: make([]int, s.net.NumSites()),
			tg:   graph.New(0),
		}
	}
	return s.scratch
}

// Clone returns an independent copy of the optical state: mutable occupancy
// (wavelength bitsets, regenerator pools, live circuits) is deep-copied,
// while the immutable precomputed fiber-layer route tables are shared with
// the receiver and the per-State scratch is left behind (each clone grows
// its own lazily). A clone may provision and release circuits concurrently
// with other clones, which is what the parallel annealing engine's worker
// pool in internal/core relies on: each worker owns a clone and evaluates
// candidate topologies without touching shared mutable state.
func (s *State) Clone() *State {
	c := &State{
		net:              s.net,
		rt:               s.rt,
		fiberUse:         make([]waveSet, len(s.fiberUse)),
		fiberFree:        make([]waveSet, len(s.fiberFree)),
		fiberFree0:       s.fiberFree0,
		waveEpoch:        s.waveEpoch,
		fiberWaves:       s.fiberWaves,
		regenFree:        append([]int(nil), s.regenFree...),
		regenAvail:       append(bitset.Set(nil), s.regenAvail...),
		wRegen:           append([]float64(nil), s.wRegen...),
		regenAvail0:      append(bitset.Set(nil), s.regenAvail0...),
		wRegen0:          append([]float64(nil), s.wRegen0...),
		directOnly:       s.directOnly,
		segmentOnly:      s.segmentOnly,
		circuits:         make(map[int]*Circuit, len(s.circuits)),
		nextID:           s.nextID,
		unitRegenWeights: s.unitRegenWeights,
		fiberGraph:       s.fiberGraph,
		pairDist:         s.pairDist,
		pairPath:         s.pairPath,
		pairAlts:         s.pairAlts,
		inReach:          s.inReach,
		regenReach:       s.regenReach,
		reachMaskW:       s.reachMaskW,
		maskW:            s.maskW,
	}
	for id, w := range s.fiberUse {
		if w != nil {
			c.fiberUse[id] = append(waveSet(nil), w...)
			c.fiberFree[id] = append(waveSet(nil), s.fiberFree[id]...)
		}
	}
	for id, circ := range s.circuits {
		c.circuits[id] = circ // circuits are immutable once provisioned
	}
	return c
}

// Reset releases every circuit and restores all regenerator pools.
func (s *State) Reset() {
	for id := range s.fiberUse {
		for j := range s.fiberUse[id] {
			s.fiberUse[id][j] = 0
		}
		copy(s.fiberFree[id], s.fiberFree0[id])
	}
	s.waveEpoch++
	for i, site := range s.net.Sites {
		s.regenFree[i] = site.Regenerators
	}
	s.regenAvail.Copy(s.regenAvail0)
	copy(s.wRegen, s.wRegen0)
	s.directOnly = true
	s.segmentOnly = true
	clear(s.circuits)
}

// DirectOnly reports whether every route query since the last Reset was
// answered by the direct-segment fast path on a primary fiber route.
// Consumers use it to mark memoized effective links whose provisioning
// depended only on the primary per-pair route tables, making them eligible
// for migration across a fiber removal.
func (s *State) DirectOnly() bool { return s.directOnly }

// SegmentOnly reports whether every route query since the last Reset was
// answered by the direct-segment fast path — on a primary route or one of
// its precomputed alternates — without consulting the regenerator graph.
// The weaker of the two audit tiers (DirectOnly implies SegmentOnly);
// entries in this class migrate across a fiber removal when the alternate-
// aware SameSegmentRouting holds for every link.
func (s *State) SegmentOnly() bool { return s.segmentOnly }

// Circuits returns the number of live circuits.
func (s *State) Circuits() int { return len(s.circuits) }

// SetUnitRegenWeights toggles the regenerator-balancing ablation: when
// true, regenerator-graph nodes weigh 1 instead of the inverse of their
// remaining pool.
func (s *State) SetUnitRegenWeights(on bool) {
	s.unitRegenWeights = on
	s.rebuildRegenCaches() // the cached node weights embed the formula
}

// FiberPathIDs returns the fiber ids of the shortest fiber path between two
// sites (nil if none). The slice is shared; callers must not mutate it. It is
// the same slice on every call for the lifetime of the state's route tables:
// a pair within the padded reach reads its stored primary, and one past it
// a path built on its first request and kept. It is safe to call from
// several goroutines, on one state or on several sharing a network.
func (s *State) FiberPathIDs(u, v int) []int { return s.rt.fiberPath(u, v) }

// canReach reports whether a single unregenerated segment u->v can exist
// (precomputed reach adjacency).
func (s *State) canReach(u, v int) bool { return s.inReach[u*s.net.NumSites()+v] }

// SameDirectRouting reports whether the PRIMARY direct-segment routing for
// the ordered pair (u, v) is identical between s and t: the same reach
// verdict and, when in reach, the same primary fiber route (ids, distance,
// and per-fiber wavelength counts). When this holds for every link of a
// topology whose provisioning was answered entirely by the direct fast path
// on primary routes (State.DirectOnly), replaying that provisioning on t
// makes exactly the same decisions: by induction over the circuit sequence
// the wavelength occupancy evolves identically on the identical fibers, so
// each primary first-fit scan returns the same wavelength, succeeds before
// any alternate is consulted — which is why the alternate tables need no
// comparison — and yields identical effective capacities. This is the
// validity predicate of internal/core's memo migration across a fiber
// removal.
func (s *State) SameDirectRouting(t *State, u, v int) bool {
	ns := s.net.NumSites()
	if t.net.NumSites() != ns {
		return false
	}
	if s.inReach[u*ns+v] != t.inReach[u*ns+v] {
		return false
	}
	if s.inReach[u*ns+v] {
		if s.pairDist[u][v] != t.pairDist[u][v] ||
			!sameFiberIDs(s, t, s.pairPath[u][v], t.pairPath[u][v]) {
			return false
		}
	}
	return true
}

// sameFiberIDs reports whether two fiber-id sequences are identical AND each
// shared id carries the same wavelength capacity in both states — the two
// inputs routeLambda's first-fit scan depends on.
func sameFiberIDs(s, t *State, a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, id := range a {
		if id != b[i] || s.fiberWaves[id] != t.fiberWaves[b[i]] {
			return false
		}
	}
	return true
}

// SameSegmentRouting reports whether the COMPLETE direct-segment routing for
// the ordered pair (u, v) — the primary fiber route and the full alternate
// table, in table order — is identical between s and t. It is the
// alternate-aware extension of SameDirectRouting: when it holds for every
// link of a topology whose provisioning never consulted the regenerator
// graph (State.SegmentOnly), replaying that provisioning on t makes exactly
// the same decisions. The induction is SameDirectRouting's, one candidate
// deeper — segmentFeasible scans primary-then-alternates in table order and
// takes the first route with a common free wavelength, so identical
// candidate sequences over fibers of identical wavelength capacity, with
// the occupancy evolving identically by induction over the circuit
// sequence, yield the same route and wavelength choice for every circuit.
func (s *State) SameSegmentRouting(t *State, u, v int) bool {
	if !s.SameDirectRouting(t, u, v) {
		return false
	}
	sa, ta := s.pairAlts[u][v], t.pairAlts[u][v]
	if len(sa) != len(ta) {
		return false
	}
	for i := range sa {
		if sa[i].km != ta[i].km || !sameFiberIDs(s, t, sa[i].ids, ta[i].ids) {
			return false
		}
	}
	return true
}

// staticFeasible reports whether a circuit u->v could be provisioned on an
// empty network (precomputed; see the regenReach field). False means the
// pair fails in every provisioning order, independent of occupancy.
func (s *State) staticFeasible(u, v int) bool {
	return s.regenReach[u*s.maskW+v>>6]>>(uint(v)&63)&1 == 1
}

// segmentFeasible checks that some in-reach fiber route u->v has a common
// free wavelength; it returns the route and wavelength, or a nil route.
// The shortest fiber path is tried first, then the precomputed in-reach
// alternates (the paper's canBeBuilt check walks candidate paths the same
// way). The answer per ordered pair is cached against the availability
// epoch: findRegenRoute probes a segment and provision realizes it moments
// later, and between the two probes no wavelength moved, so the second is a
// stamp compare instead of a route scan. The cached route is rebuilt from
// the route tables (not stored), preserving the alias identity the
// directOnly audit's pointer test depends on.
func (s *State) segmentFeasible(u, v int) (fiberRoute, int) {
	sc := s.scratchBuf()
	ns := s.net.NumSites()
	if sc.segStamp == nil {
		sc.segStamp = make([]uint64, ns*ns)
		sc.segAns = make([]int32, ns*ns)
	}
	pi := u*ns + v
	if sc.segStamp[pi] == s.waveEpoch {
		code := sc.segAns[pi]
		switch ri := int(code>>16) - 2; {
		case ri == -2:
			return fiberRoute{}, -1
		case ri == -1:
			return fiberRoute{ids: s.pairPath[u][v], km: s.pairDist[u][v]}, int(code & 0xffff)
		default:
			return s.pairAlts[u][v][ri], int(code & 0xffff)
		}
	}
	route, ri, l := fiberRoute{}, -2, -1
	if s.canReach(u, v) {
		if l = s.routeLambda(s.pairPath[u][v]); l >= 0 {
			route, ri = fiberRoute{ids: s.pairPath[u][v], km: s.pairDist[u][v]}, -1
		}
	}
	if ri == -2 {
		for k, alt := range s.pairAlts[u][v] {
			if l = s.routeLambda(alt.ids); l >= 0 {
				route, ri = alt, k
				break
			}
		}
	}
	sc.segStamp[pi] = s.waveEpoch
	if ri == -2 {
		sc.segAns[pi] = 0 // (-2+2)<<16 | 0
		return fiberRoute{}, -1
	}
	sc.segAns[pi] = int32(ri+2)<<16 | int32(l)
	return route, l
}

// routeLambda returns the lowest wavelength free on every fiber of the
// route, or -1: the word-ascending intersection of the fibers' free-word
// summaries. A set bit of fiberFree[id] exists only below fiberWaves[id],
// so the intersection is implicitly capped at the tightest fiber — the
// lowest surviving bit is exactly firstCommonFree's answer over the
// occupancy sets (the property test cross-checks the two).
func (s *State) routeLambda(ids []int) int {
	if len(ids) == 0 {
		return 0 // vacuous route: every wavelength is common-free
	}
	first := s.fiberFree[ids[0]]
	nw := len(first)
	rest := ids[1:]
	for _, id := range rest {
		if l := len(s.fiberFree[id]); l < nw {
			nw = l
		}
	}
	for j := 0; j < nw; j++ {
		acc := first[j]
		for _, id := range rest {
			acc &= s.fiberFree[id][j]
		}
		if acc != 0 {
			return j<<6 + bits.TrailingZeros64(acc)
		}
	}
	return -1
}

// Provision establishes a circuit between src and dst, consuming wavelengths
// and regenerators. It returns the circuit or an error if no feasible
// combination of regenerator sites and wavelengths exists.
func (s *State) Provision(src, dst int) (*Circuit, error) {
	return s.provision(src, dst, true)
}

// provision implements Provision. With record == false it applies exactly
// the same state mutations (wavelength claims, regenerator consumption, id
// sequencing) but materializes no Circuit — the allocation-free mode behind
// ProvisionEffectiveEnum, where the annealing energy function only needs the
// effective capacities.
func (s *State) provision(src, dst int, record bool) (*Circuit, error) {
	if src == dst {
		return nil, fmt.Errorf("optical: circuit endpoints equal (%d)", src)
	}
	hops, err := s.findRegenRoute(src, dst)
	if err != nil {
		return nil, err
	}
	// Realize every hop as a segment on a feasible fiber route.
	var c *Circuit
	if record {
		c = &Circuit{ID: s.nextID, Src: src, Dst: dst}
	}
	for i := 0; i+1 < len(hops); i++ {
		u, v := hops[i], hops[i+1]
		route, lambda := s.segmentFeasible(u, v)
		if lambda < 0 {
			// findRegenRoute verified feasibility, so this is unreachable
			// unless state changed concurrently.
			return nil, errSegmentInfeasible
		}
		for _, id := range route.ids {
			s.claimWave(id, lambda)
		}
		if record {
			c.Segments = append(c.Segments, Segment{FiberIDs: route.ids, Wavelength: lambda, LengthKm: route.km})
		}
		if i+1 < len(hops)-1 { // interior node regenerates
			s.setRegen(v, s.regenFree[v]-1)
			if record {
				c.RegenSites = append(c.RegenSites, v)
			}
		}
	}
	s.nextID++
	if record {
		s.circuits[c.ID] = c
	}
	return c, nil
}

// findRegenRoute picks the sequence of sites (src, regenerators..., dst)
// for a new circuit. The regenerator graph has src, dst and every site with
// a spare regenerator as vertices and an arc wherever a single segment is
// within reach; nodes are weighted by 1/remaining-regenerators (endpoints
// weigh zero) and node weights become edge weights on a directed graph (each
// directed edge carries the weight of its head node, Figure 5 of the paper).
// The shortest feasible paths are then tried in order, checking per-segment
// wavelength availability.
//
// With the reach masks (reachMaskW non-nil) the graph is only built when
// Yen's enumeration can succeed. The mask Dijkstra finds the shortest path
// without it; if that path is not buildable, exhaustedFrom runs first, and
// when it proves no chain of feasible segments joins src to dst the query
// fails at once. That proof is exact: every Yen path is a simple path over
// the same vertex set and the same reach arcs, and a simple path is
// buildable exactly when each of its segments is feasible (its interior
// sites are distinct and each has a spare regenerator). So the materialized
// graph and Yen run only for the queries that may still succeed, and their
// first path, the one just shown unbuildable, is not re-run on its own. With
// reachMaskW nil every query builds the graph and runs the shortest path and
// then Yen on it; the differential tests use that as the reference.
//
// The transit graph, node list, and path scratch are reused from the
// State's scratch area; the returned hop slice is also scratch-owned and
// valid only until the next findRegenRoute call.
func (s *State) findRegenRoute(src, dst int) ([]int, error) {
	// Fast path: a direct segment within reach with a free wavelength needs
	// no regenerator graph at all. This covers the vast majority of circuits
	// on continental topologies and keeps the annealing energy function fast.
	if route, l := s.segmentFeasible(src, dst); l >= 0 {
		if len(route.ids) == 0 || !s.canReach(src, dst) || &route.ids[0] != &s.pairPath[src][dst][0] {
			// An alternate fiber route answered: the run's decisions now
			// depend on the alternate tables, not just the primaries.
			s.directOnly = false
		}
		sc := s.scratchBuf()
		sc.hops = append(sc.hops[:0], src, dst)
		return sc.hops, nil
	}
	s.directOnly = false
	s.segmentOnly = false // this query needs the regenerator graph
	ns := s.net.NumSites()
	sc := s.scratchBuf()
	if s.reachMaskW != nil {
		hops, ok := s.maskRoute(src, dst)
		if !ok {
			return nil, errNoRegenRoute
		}
		if s.routeBuildable(hops) {
			return hops, nil
		}
		if s.exhaustedFrom(src, dst) {
			return nil, errExhausted
		}
	}
	// Nodes of the regenerator graph: src, dst, and sites with spare regens.
	sc.nodes = sc.nodes[:0]
	srcIdx, dstIdx := -1, -1
	for v := 0; v < ns; v++ {
		if v == src || v == dst || s.regenFree[v] > 0 {
			if v == src {
				srcIdx = len(sc.nodes)
			}
			if v == dst {
				dstIdx = len(sc.nodes)
			}
			sc.nodes = append(sc.nodes, v)
		}
	}
	nodes := sc.nodes
	weight := func(v int) float64 {
		if v == src || v == dst {
			return 0
		}
		if s.unitRegenWeights {
			return 1
		}
		// Inverse of remaining regenerators balances consumption across
		// concentration sites. A tiny epsilon keeps paths short when all
		// weights are equal.
		return 1/float64(s.regenFree[v]) + 1e-6
	}
	tg := sc.tg
	tg.Reset(len(nodes))
	for i, u := range nodes {
		for j, v := range nodes {
			if i == j {
				continue
			}
			if s.canReach(u, v) {
				tg.AddEdge(i, j, weight(v), 0)
			}
		}
	}
	if s.reachMaskW == nil {
		// Try the single shortest path first (cheap), then fall back to
		// Yen's k-shortest enumeration only when it is not buildable:
		// wavelengths may be exhausted on some segment, or an interior site
		// may be short of regenerators for a path that revisits it.
		sp := tg.ShortestPathScratch(&sc.sp, srcIdx, dstIdx)
		if sp == nil {
			return nil, errNoRegenRoute
		}
		if hops := s.hopsOf(sp, nodes); s.routeBuildable(hops) {
			return hops, nil
		}
	}
	const kPaths = 6
	paths := tg.KShortestPathsScratch(&sc.sp, srcIdx, dstIdx, kPaths)
	for _, p := range paths {
		hops := s.hopsOf(p, nodes)
		if hops != nil && s.routeBuildable(hops) {
			return hops, nil
		}
	}
	return nil, errExhausted
}

// maskRoute runs the node-weighted Dijkstra of findRegenRoute directly on
// the reach bitmasks — bit-identical to building the transit graph and
// searching it (see MaskShortestNodeWeightedW). It leaves the query's
// vertex set in the scratch nodeMaskW for exhaustedFrom. The returned hops
// are scratch-owned like findRegenRoute's.
func (s *State) maskRoute(src, dst int) ([]int, bool) {
	sc := s.scratchBuf()
	// The vertex set is the persistent availability mask regenAvail plus
	// the endpoints — a word copy, not an O(n) scan — and the weights come
	// straight from the persistent wRegen cache; both are maintained at
	// every pool mutation. The endpoints join the set for the duration of
	// the query with weight 0, exactly as the scan set them: w[src] is never
	// read (no relaxation can beat dist[src] = 0 with non-negative weights)
	// and w[dst] must be 0. Where the availability bit is clear the cached
	// weight is stale, but such vertices are outside the vertex set and the
	// Dijkstra never reads them.
	w := s.wRegen
	sc.nodeMaskW = bitset.Grow(sc.nodeMaskW, s.net.NumSites())
	sc.nodeMaskW.Copy(s.regenAvail)
	sc.nodeMaskW.Set(src)
	sc.nodeMaskW.Set(dst)
	wSrc, wDst := w[src], w[dst]
	w[src], w[dst] = 0, 0
	hops, ok := graph.MaskShortestNodeWeightedW(&sc.sp, s.reachMaskW, s.maskW, sc.nodeMaskW, w, src, dst, sc.hops[:0])
	w[src], w[dst] = wSrc, wDst
	if ok {
		sc.hops = hops
	}
	return hops, ok
}

// exhaustedFrom reports whether no chain of feasible segments joins src to
// dst through the vertex set maskRoute left in nodeMaskW: a reachability
// search from src that walks the reach rows a word at a time, masked by the
// vertex set and the sites already reached, and follows an arc only where
// segmentFeasible finds a wavelength on it. True means every path of the
// regenerator graph has an infeasible segment.
func (s *State) exhaustedFrom(src, dst int) bool {
	sc := s.scratchBuf()
	words := s.maskW
	sc.reached = bitset.Grow(sc.reached, s.net.NumSites())
	reached, through := sc.reached, sc.nodeMaskW
	reached.Set(src)
	sc.stack = append(sc.stack[:0], src)
	for len(sc.stack) > 0 {
		u := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		row := s.reachMaskW[u*words : (u+1)*words]
		for wi, rw := range row {
			for m := rw & through[wi] &^ reached[wi]; m != 0; m &= m - 1 {
				v := wi<<6 + bits.TrailingZeros64(m)
				if _, l := s.segmentFeasible(u, v); l < 0 {
					continue
				}
				if v == dst {
					return false
				}
				reached[wi] |= m & -m
				sc.stack = append(sc.stack, v)
			}
		}
	}
	return true
}

// hopsOf maps a path in the transformed regenerator graph back to site ids.
// The result lives in the State scratch and is valid until the next hopsOf
// or findRegenRoute call.
func (s *State) hopsOf(p *graph.Path, nodes []int) []int {
	verts := p.Vertices()
	if verts == nil {
		return nil
	}
	sc := s.scratchBuf()
	sc.hops = sc.hops[:0]
	for _, vi := range verts {
		sc.hops = append(sc.hops, nodes[vi])
	}
	return sc.hops
}

// routeBuildable verifies wavelengths for every hop and regenerator
// availability at interior nodes.
func (s *State) routeBuildable(hops []int) bool {
	sc := s.scratchBuf()
	ok := true
	filled := 0
	for i := 0; i+1 < len(hops); i++ {
		if _, l := s.segmentFeasible(hops[i], hops[i+1]); l < 0 {
			ok = false
			break
		}
		if i+1 < len(hops)-1 {
			sc.need[hops[i+1]]++
			filled = i + 1
		}
	}
	if ok {
		for i := 1; i+1 < len(hops); i++ {
			if s.regenFree[hops[i]] < sc.need[hops[i]] {
				ok = false
				break
			}
		}
	}
	for i := 1; i <= filled; i++ {
		sc.need[hops[i]] = 0
	}
	return ok
}
