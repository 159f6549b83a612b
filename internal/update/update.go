// Package update schedules cross-layer network updates consistently,
// extending the Dionysus dependency-graph approach with circuit nodes as
// described in §3.3 of the paper: creating a circuit consumes a wavelength
// on each fiber it crosses and removing one frees it; a routing path cannot
// carry traffic until circuits for all of its links are up; and a circuit
// cannot be torn down while routed traffic still needs its capacity.
//
// The scheduler emits rounds of operations that can safely run in parallel.
// It also evaluates the throughput timeline during the update, which is the
// quantity Figure 10(b) compares between consistent and one-shot updates.
//
// Two planner engines share these semantics. The flat engine (engine.go)
// works on edge-id-indexed slices with a reusable Scratch and re-examines a
// pending op only when a link it waits on changes; it is the one behind
// BuildPlan and the per-slot Planner both slot loops run. The retained
// map-based engine (reference_test.go) is the executable specification; the
// two are pinned bit-identical — rounds, op order, detours, timelines — by
// the 300-seed differential in differential_test.go (`make update`).
package update

import (
	"cmp"
	"errors"
	"slices"

	"owan/internal/topology"
)

// Static planner errors (errors.Is-comparable; none of them allocates on
// the per-slot planning path).
var (
	// ErrBadTheta rejects non-positive circuit capacities.
	ErrBadTheta = errors.New("update: theta must be positive")
	// ErrDeadlock is returned when no consistent schedule exists even
	// after the forced-detour fallback (the target state itself is
	// infeasible).
	ErrDeadlock = errors.New("update: unresolvable deadlock")
	// ErrDuplicateRoute rejects a state carrying the same (transfer, path)
	// route twice: route identity is the (TransferID, Path) pair, and every
	// caller (allocator results) produces distinct paths per transfer. The
	// planner asserts the invariant instead of silently collapsing
	// duplicates the way the old string-keyed maps did.
	ErrDuplicateRoute = errors.New("update: duplicate (transfer, path) route in state")
	// ErrBadRTT rejects non-positive RTTs in OneShotTCPTimeline.
	ErrBadRTT = errors.New("update: rtt must be positive")
	// ErrDegenerateTCP is returned when the TCP model's steady state
	// carries no goodput.
	ErrDegenerateTCP = errors.New("update: degenerate TCP steady state")
)

// Op is a single update operation.
type Op struct {
	// Kind discriminates the union.
	Kind OpKind
	// Link is the network-layer link for circuit ops.
	Link [2]int
	// Fibers are the fiber IDs a circuit op touches (consumed on add,
	// freed on remove).
	Fibers []int
	// TransferID, Path and Rate describe route ops. OldRate is the prior
	// rate for ChangeRoute.
	TransferID int
	Path       []int
	Rate       float64
	OldRate    float64
}

// OpKind enumerates operation types.
type OpKind int

// Operation kinds.
const (
	AddCircuit OpKind = iota
	RemoveCircuit
	AddRoute
	RemoveRoute
	// ChangeRoute adjusts the rate of an existing route in place (rate
	// limiter update); decreases are always safe, increases wait for
	// capacity. OldRate holds the prior rate.
	ChangeRoute
)

func (k OpKind) String() string {
	switch k {
	case AddCircuit:
		return "add-circuit"
	case RemoveCircuit:
		return "remove-circuit"
	case AddRoute:
		return "add-route"
	case RemoveRoute:
		return "remove-route"
	case ChangeRoute:
		return "change-route"
	}
	return "unknown"
}

// Durations of operations in seconds: optical reconfiguration takes
// seconds ("three to five seconds on our testbed"); rule updates are fast.
const (
	CircuitOpSeconds = 4.0
	RouteOpSeconds   = 0.1
)

func (o Op) seconds() float64 {
	if o.Kind == AddCircuit || o.Kind == RemoveCircuit {
		return CircuitOpSeconds
	}
	return RouteOpSeconds
}

// Round is a set of operations executing in parallel; its duration is the
// longest operation in it.
type Round struct {
	Ops []Op
}

// Seconds returns the round's wall-clock duration.
func (r Round) Seconds() float64 {
	m := 0.0
	for _, o := range r.Ops {
		if s := o.seconds(); s > m {
			m = s
		}
	}
	return m
}

// Plan is an ordered sequence of rounds.
type Plan struct {
	Rounds []Round
	// ForcedDetours counts routes that had to be temporarily removed to
	// break a capacity deadlock (Dionysus' rate-reduction fallback).
	ForcedDetours int
}

// Seconds returns the total update duration.
func (p *Plan) Seconds() float64 {
	t := 0.0
	for _, r := range p.Rounds {
		t += r.Seconds()
	}
	return t
}

// NumOps returns the number of operations across rounds.
func (p *Plan) NumOps() int {
	n := 0
	for _, r := range p.Rounds {
		n += len(r.Ops)
	}
	return n
}

// State describes one side (old or new) of an update.
type State struct {
	// Circuits per network-layer link.
	Circuits map[[2]int]int
	// CircuitFibers maps a link to the fibers one of its circuits crosses
	// (used for wavelength accounting; all parallel circuits of a link are
	// assumed to share the same fiber route, which holds for shortest-path
	// provisioning).
	CircuitFibers map[[2]int][]int
	// Routes carried in this state. Route identity is the (TransferID,
	// Path) pair and must be unique within a state; the planner returns
	// ErrDuplicateRoute otherwise.
	Routes []Route

	// links is the SetTopology enumeration scratch, retained so per-slot
	// state rebuilds reuse AppendLinks without allocating.
	links []topology.Link
}

// Reset clears the state for reuse, keeping the map storage and slice
// capacity so a per-slot rebuild allocates nothing in steady state.
func (st *State) Reset() {
	if st.Circuits == nil {
		st.Circuits = map[[2]int]int{}
	} else {
		clear(st.Circuits)
	}
	if st.CircuitFibers == nil {
		st.CircuitFibers = map[[2]int][]int{}
	} else {
		clear(st.CircuitFibers)
	}
	st.Routes = st.Routes[:0]
}

// SetTopology fills Circuits and CircuitFibers from a topology snapshot:
// one entry per aggregated link of ls, with the fiber route returned by
// fiberIDs (typically optical.(*State).FiberPathIDs; the returned slices
// are stored as-is and must stay immutable). The enumeration reuses
// AppendLinks into retained scratch, so after Reset a slot rebuild is
// allocation-free once the maps have reached capacity.
func (st *State) SetTopology(ls *topology.LinkSet, fiberIDs func(u, v int) []int) {
	if st.Circuits == nil {
		st.Circuits = map[[2]int]int{}
	}
	if st.CircuitFibers == nil {
		st.CircuitFibers = map[[2]int][]int{}
	}
	st.links = ls.AppendLinks(st.links[:0])
	for _, l := range st.links {
		k := [2]int{l.U, l.V}
		st.Circuits[k] = l.Count
		st.CircuitFibers[k] = fiberIDs(l.U, l.V)
	}
}

// AppendRoute adds one route to the state.
func (st *State) AppendRoute(transferID int, path []int, rate float64) {
	st.Routes = append(st.Routes, Route{TransferID: transferID, Path: path, Rate: rate})
}

// Route is a rate-carrying path of one transfer.
type Route struct {
	TransferID int
	Path       []int
	Rate       float64
}

// rkey is the integer route identity both engines key detour and live-route
// tables by: the transfer id plus an FNV-1a hash of the path. It replaces
// the old fmt.Sprint(id, path) string keys. Hash collisions between two
// distinct paths of the same transfer are possible in principle but are
// 2⁻⁶⁴-scale events; the flat engine additionally uses dense route indices,
// so a collision would surface loudly in the engine differential.
type rkey struct {
	id   int
	hash uint64
}

func routeKeyOf(transferID int, path []int) rkey {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range path {
		h ^= uint64(v)
		h *= prime64
	}
	return rkey{id: transferID, hash: h}
}

// cmpRoute is the canonical deterministic route order — transfer id, then
// path lexicographically. Both engines emit route-diff ops in this order
// (the old code ordered by the string form of fmt.Sprint keys, which sorted
// id 10 before id 2; the canonical order is numeric).
func cmpRoute(a, b Route) int {
	if c := cmp.Compare(a.TransferID, b.TransferID); c != 0 {
		return c
	}
	return slices.Compare(a.Path, b.Path)
}

// routeRec pairs a route with its integer key for sorted diffing.
type routeRec struct {
	r   Route
	key rkey
}

func cmpRouteRec(a, b routeRec) int { return cmpRoute(a.r, b.r) }

// appendSortedRecs appends one rec per route to dst[:0], sorts them into
// the canonical order and asserts the (TransferID, Path) uniqueness
// invariant. Shared by both engines so they agree on op ordering by
// construction; the scheduling loops stay fully independent.
func appendSortedRecs(dst []routeRec, routes []Route) ([]routeRec, error) {
	dst = dst[:0]
	for _, r := range routes {
		dst = append(dst, routeRec{r: r, key: routeKeyOf(r.TransferID, r.Path)})
	}
	slices.SortFunc(dst, cmpRouteRec)
	for i := 1; i < len(dst); i++ {
		if dst[i].r.TransferID == dst[i-1].r.TransferID && slices.Equal(dst[i].r.Path, dst[i-1].r.Path) {
			return dst, ErrDuplicateRoute
		}
	}
	return dst, nil
}

func linkKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func routeLinks(path []int) [][2]int {
	out := make([][2]int, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		out = append(out, linkKey(path[i], path[i+1]))
	}
	return out
}

// Config parameterizes plan construction.
type Config struct {
	// Theta is circuit capacity in Gbps.
	Theta float64
	// FiberFree is the number of spare wavelengths per fiber id at the
	// start of the update (beyond those used by current circuits).
	FiberFree map[int]int
}

// BuildPlan computes a consistent round schedule transforming old into new.
// It runs the flat engine on a throwaway Scratch; per-slot callers should
// hold a Scratch and call its BuildPlan to avoid reallocating.
func BuildPlan(cfg Config, oldState, newState *State) (*Plan, error) {
	return NewScratch().BuildPlan(cfg, oldState, newState)
}
