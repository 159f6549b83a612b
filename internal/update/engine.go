package update

import "slices"

// The flat planner engine. It emits bit-identical plans to referencePlan
// (reference_test.go) — same rounds, same op order, same detours, same float
// results — but runs on edge-id-indexed slices with a reusable Scratch and
// replaces the reference's per-round O(pending²) rescans with a
// dependency-counting round builder:
//
//   - edge ids are minted once per plan from the sorted union of circuit
//     links and route path links, so live circuit counts, link loads and
//     the per-round needs/removals aggregates are flat slices indexed by
//     edge id instead of map[[2]int] lookups;
//   - every pending op's per-link demand is static (its rate or rate
//     delta), so the per-round aggregates are rebuilt with one O(pending)
//     pass instead of per-candidate map rebuilds;
//   - edges and fibers keep waiter lists: an op that was deferred or
//     rejected goes clean and registers on every link/fiber its decision
//     read, and is re-examined only after one of them fires (a consume,
//     release, aggregate change or victim restore touched it). A clean
//     op's inputs are unchanged since its last examination, so skipping it
//     provably reproduces the reference's full rescan — that is why waiter
//     lists preserve the greedy order (see DESIGN.md §15).
//
// Within a round, ops are still scanned in pending order and consume
// resources the moment they are selected, exactly like the reference, so
// later candidates observe earlier selections: a consume fires its edges'
// waiters immediately, marking not-yet-scanned ops dirty in the same
// round.

// flatOp is one pending operation: the public op as it will be emitted,
// plus the flat-engine metadata (edge id for circuit ops, the edge-id list
// of the path for route ops, and the alive/dirty scheduling flags).
type flatOp struct {
	pub   Op
	edge  int32 // circuit ops: edge id; route ops: -1
	lo    int32 // route ops: edge ids are lnk[lo : lo+ln]
	ln    int32
	alive bool
	dirty bool
}

// Scratch holds every buffer the flat planner and timeline need, reused
// across calls so per-slot planning performs no steady-state allocation.
// The Plan returned by BuildPlan and the samples returned by Timeline
// alias scratch-owned storage: they are valid until the next call on the
// same Scratch.
type Scratch struct {
	theta float64

	// Edge table: sorted canonical (u<<32 | v) pair keys; the index of a
	// key is the edge id.
	pairs []uint64

	// Live per-edge state.
	circuits []int32
	newC     []int32
	load     []float64

	// Per-round aggregates, epoch-stamped so resetting them is O(1): a
	// slot whose stamp is not the current epoch reads as zero.
	needs      []float64
	needStamp  []int64
	removals   []int32
	remStamp   []int64
	blockStamp []int64
	epoch      int64
	vEpoch     int64

	// Waiter lists: head node index per edge / per fiber (-1 = empty),
	// nodes in a grow-only arena.
	eWait    []int32
	fWait    []int32
	nodeOp   []int32
	nodeNext []int32

	// Fibers, dense by fiber id.
	fiberFree []int32

	// Pending ops and the alive order (pending order, compacted per
	// round). lnk is the shared edge-id arena for route paths.
	ops      []flatOp
	lnk      []int32
	order    []int32
	orderBuf []int32
	sel      []int32
	detoured []bool

	// Sorted route records of the two states.
	oldRecs []routeRec
	newRecs []routeRec

	// Output arenas.
	outOps    []Op
	roundEnds []int
	rounds    []Round
	plan      Plan

	// Timeline state: the combined (old ∪ plan) route table sorted in
	// canonical order, per-slot live rate/flag, and the sample buffer.
	tlRecs  []routeRec
	tlRate  []float64
	tlLive  []bool
	samples []Sample
}

// NewScratch returns an empty planner scratch. A Scratch is not safe for
// concurrent use.
func NewScratch() *Scratch { return &Scratch{} }

func pairKey(u, v int) uint64 {
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func pairOf(k uint64) [2]int {
	return [2]int{int(int32(k >> 32)), int(int32(k))}
}

// edgeOf returns the edge id of a raw (u, v) pair that is guaranteed to be
// in the minted table.
func (s *Scratch) edgeOf(u, v int) int32 {
	i, _ := slices.BinarySearch(s.pairs, pairKey(u, v))
	return int32(i)
}

// edgeOfCanon canonicalizes a path hop before the lookup.
func (s *Scratch) edgeOfCanon(u, v int) int32 {
	if u > v {
		u, v = v, u
	}
	return s.edgeOf(u, v)
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// BuildPlan computes a consistent round schedule transforming old into
// new. The returned plan aliases scratch storage and is valid until the
// next BuildPlan call on this Scratch.
func (s *Scratch) BuildPlan(cfg Config, oldState, newState *State) (*Plan, error) {
	if cfg.Theta <= 0 {
		return nil, ErrBadTheta
	}
	s.theta = cfg.Theta
	var err error
	if s.oldRecs, err = appendSortedRecs(s.oldRecs, oldState.Routes); err != nil {
		return nil, err
	}
	if s.newRecs, err = appendSortedRecs(s.newRecs, newState.Routes); err != nil {
		return nil, err
	}

	// Mint edge ids: circuit links by their raw map keys (the reference
	// diffs them as-is), route hops canonicalized (the reference's
	// routeLinks does the same), sorted and deduped. Key order equals
	// (u, v) order, so the circuit-diff scan below emits ops in exactly
	// the reference's sorted-union order.
	s.pairs = s.pairs[:0]
	for l := range oldState.Circuits {
		s.pairs = append(s.pairs, pairKey(l[0], l[1]))
	}
	for l := range newState.Circuits {
		s.pairs = append(s.pairs, pairKey(l[0], l[1]))
	}
	for _, r := range oldState.Routes {
		s.appendPathPairs(r.Path)
	}
	for _, r := range newState.Routes {
		s.appendPathPairs(r.Path)
	}
	slices.Sort(s.pairs)
	s.pairs = slices.Compact(s.pairs)
	ne := len(s.pairs)

	s.circuits = growI32(s.circuits, ne)
	s.newC = growI32(s.newC, ne)
	s.load = growF64(s.load, ne)
	s.needs = growF64(s.needs, ne)
	s.needStamp = growI64(s.needStamp, ne)
	s.removals = growI32(s.removals, ne)
	s.remStamp = growI64(s.remStamp, ne)
	s.blockStamp = growI64(s.blockStamp, ne)
	s.eWait = growI32(s.eWait, ne)
	for e := 0; e < ne; e++ {
		s.circuits[e] = 0
		s.newC[e] = 0
		s.load[e] = 0
		s.eWait[e] = -1
	}
	for l, c := range oldState.Circuits {
		s.circuits[s.edgeOf(l[0], l[1])] = int32(c)
	}
	for l, c := range newState.Circuits {
		s.newC[s.edgeOf(l[0], l[1])] = int32(c)
	}
	// Initial link loads, summed in the state's route order like the
	// reference (summation order is part of the bit-identity contract).
	for _, r := range oldState.Routes {
		for i := 0; i+1 < len(r.Path); i++ {
			s.load[s.edgeOfCanon(r.Path[i], r.Path[i+1])] += r.Rate
		}
	}

	// Pending ops: circuit diffs in sorted link order (adds before
	// removes per link), then old-side route removals/changes, then
	// new-side additions, both in canonical route order.
	s.ops = s.ops[:0]
	s.lnk = s.lnk[:0]
	s.order = s.order[:0]
	for e := 0; e < ne; e++ {
		diff := s.newC[e] - s.circuits[e]
		if diff == 0 {
			continue
		}
		l := pairOf(s.pairs[e])
		fibers, ok := newState.CircuitFibers[l]
		if !ok {
			fibers = oldState.CircuitFibers[l]
		}
		for i := int32(0); i < diff; i++ {
			s.pushOp(flatOp{pub: Op{Kind: AddCircuit, Link: l, Fibers: fibers}, edge: int32(e)})
		}
		for i := int32(0); i < -diff; i++ {
			s.pushOp(flatOp{pub: Op{Kind: RemoveCircuit, Link: l, Fibers: fibers}, edge: int32(e)})
		}
	}
	for i := range s.oldRecs {
		rec := &s.oldRecs[i]
		j, keep := slices.BinarySearchFunc(s.newRecs, *rec, cmpRouteRec)
		if !keep {
			s.pushRouteOp(Op{Kind: RemoveRoute, TransferID: rec.r.TransferID, Path: rec.r.Path, Rate: rec.r.Rate})
		} else if n := s.newRecs[j].r; n.Rate != rec.r.Rate {
			s.pushRouteOp(Op{Kind: ChangeRoute, TransferID: rec.r.TransferID, Path: rec.r.Path, Rate: n.Rate, OldRate: rec.r.Rate})
		}
	}
	for i := range s.newRecs {
		rec := &s.newRecs[i]
		if _, had := slices.BinarySearchFunc(s.oldRecs, *rec, cmpRouteRec); !had {
			s.pushRouteOp(Op{Kind: AddRoute, TransferID: rec.r.TransferID, Path: rec.r.Path, Rate: rec.r.Rate})
		}
	}

	// Fibers: dense array over every id the config or the circuit ops
	// mention; absent ids read zero spare wavelengths, like the reference
	// map's zero value.
	maxF := -1
	for f := range cfg.FiberFree {
		if f > maxF {
			maxF = f
		}
	}
	for i := range s.ops {
		for _, f := range s.ops[i].pub.Fibers {
			if f > maxF {
				maxF = f
			}
		}
	}
	s.fiberFree = growI32(s.fiberFree, maxF+1)
	s.fWait = growI32(s.fWait, maxF+1)
	for f := 0; f <= maxF; f++ {
		s.fiberFree[f] = 0
		s.fWait[f] = -1
	}
	for f, n := range cfg.FiberFree {
		if f >= 0 {
			s.fiberFree[f] = int32(n)
		}
	}

	// The round loop.
	s.nodeOp = s.nodeOp[:0]
	s.nodeNext = s.nodeNext[:0]
	s.outOps = s.outOps[:0]
	s.roundEnds = s.roundEnds[:0]
	s.detoured = growBool(s.detoured, len(newState.Routes))
	for i := range s.detoured {
		s.detoured[i] = false
	}
	detours := 0

	for len(s.order) > 0 {
		// Rebuild the round's needs/removals aggregates with one pass
		// over the alive ops in pending order. Per-op contributions are
		// static, and the summation order matches the reference's
		// per-candidate rebuild over the same round-start pending set,
		// so the float values are bit-identical.
		s.epoch++
		for _, oi := range s.order {
			op := &s.ops[oi]
			switch op.pub.Kind {
			case AddRoute:
				s.addNeeds(op, op.pub.Rate)
			case ChangeRoute:
				if d := op.pub.Rate - op.pub.OldRate; d > 0 {
					s.addNeeds(op, d)
				}
			case RemoveCircuit:
				e := op.edge
				if s.remStamp[e] != s.epoch {
					s.remStamp[e] = s.epoch
					s.removals[e] = 0
				}
				s.removals[e]++
			}
		}

		s.sel = s.sel[:0]
		for _, oi := range s.order {
			op := &s.ops[oi]
			if !op.dirty {
				continue
			}
			if op.pub.Kind == RemoveRoute && !s.removeNeeded(op) {
				op.dirty = false
				s.registerRouteEdges(oi, op)
				continue
			}
			if s.eligibleOp(op) {
				op.alive = false
				s.consumeOp(op)
				s.outOps = append(s.outOps, op.pub)
				s.sel = append(s.sel, oi)
			} else {
				op.dirty = false
				s.registerOp(oi, op)
			}
		}

		if len(s.sel) == 0 {
			allRemovals := true
			for _, oi := range s.order {
				if s.ops[oi].pub.Kind != RemoveRoute {
					allRemovals = false
					break
				}
			}
			if allRemovals {
				// Only deferred route removals left: flush them as the
				// final cleanup round (their replacements are already up).
				for _, oi := range s.order {
					op := &s.ops[oi]
					op.alive = false
					s.outOps = append(s.outOps, op.pub)
				}
				for _, oi := range s.order {
					s.releaseOp(&s.ops[oi])
				}
				s.order = s.order[:0]
				s.roundEnds = append(s.roundEnds, len(s.outOps))
				break
			}
			// Deadlock: break it with Dionysus' fallback — temporarily
			// remove a persisting route on a blocked link, restoring it
			// at the very end.
			vi, ok := s.pickVictim(newState)
			if !ok {
				// Record the partial plan (s.plan) so the differential can
				// pin the detour path even on infeasible targets.
				s.finish(detours)
				return nil, ErrDeadlock
			}
			detours++
			s.detoured[vi] = true
			v := newState.Routes[vi]
			s.outOps = append(s.outOps, Op{Kind: RemoveRoute, TransferID: v.TransferID, Path: v.Path, Rate: v.Rate})
			s.pushRouteOp(Op{Kind: AddRoute, TransferID: v.TransferID, Path: v.Path, Rate: v.Rate})
			// The forced removal's release and the restore op's future
			// needs contribution both land on the victim's path edges:
			// apply the release now (the round is over) and wake waiters.
			restore := &s.ops[len(s.ops)-1]
			for k := restore.lo; k < restore.lo+restore.ln; k++ {
				e := s.lnk[k]
				s.load[e] -= v.Rate
				s.fireEdge(e)
			}
			s.roundEnds = append(s.roundEnds, len(s.outOps))
			continue
		}

		// Releases surface after the round, in selection order.
		for _, oi := range s.sel {
			s.releaseOp(&s.ops[oi])
		}
		s.roundEnds = append(s.roundEnds, len(s.outOps))

		// Compact the alive order, preserving pending order.
		keep := s.orderBuf[:0]
		for _, oi := range s.order {
			if s.ops[oi].alive {
				keep = append(keep, oi)
			}
		}
		s.order, s.orderBuf = keep, s.order
	}

	return s.finish(detours), nil
}

// finish materializes the plan's rounds — only now, when the outOps arena
// no longer moves — and records it as the scratch's plan.
func (s *Scratch) finish(detours int) *Plan {
	s.rounds = s.rounds[:0]
	prev := 0
	for _, end := range s.roundEnds {
		s.rounds = append(s.rounds, Round{Ops: s.outOps[prev:end]})
		prev = end
	}
	s.plan = Plan{Rounds: s.rounds, ForcedDetours: detours}
	return &s.plan
}

func (s *Scratch) appendPathPairs(path []int) {
	for i := 0; i+1 < len(path); i++ {
		u, v := path[i], path[i+1]
		if u > v {
			u, v = v, u
		}
		s.pairs = append(s.pairs, pairKey(u, v))
	}
}

func (s *Scratch) pushOp(op flatOp) {
	op.alive = true
	op.dirty = true
	op.lo, op.ln = 0, 0
	s.ops = append(s.ops, op)
	s.order = append(s.order, int32(len(s.ops)-1))
}

func (s *Scratch) pushRouteOp(o Op) {
	lo := int32(len(s.lnk))
	for i := 0; i+1 < len(o.Path); i++ {
		s.lnk = append(s.lnk, s.edgeOfCanon(o.Path[i], o.Path[i+1]))
	}
	s.ops = append(s.ops, flatOp{pub: o, edge: -1, lo: lo, ln: int32(len(s.lnk)) - lo, alive: true, dirty: true})
	s.order = append(s.order, int32(len(s.ops)-1))
}

func (s *Scratch) addNeeds(op *flatOp, v float64) {
	for k := op.lo; k < op.lo+op.ln; k++ {
		e := s.lnk[k]
		if s.needStamp[e] != s.epoch {
			s.needStamp[e] = s.epoch
			s.needs[e] = 0
		}
		s.needs[e] += v
	}
}

// removeNeeded mirrors the reference predicate: tearing the route down now
// serves a purpose if a pending RemoveCircuit sits on its path or pending
// additions need more capacity than its links have free.
func (s *Scratch) removeNeeded(op *flatOp) bool {
	for k := op.lo; k < op.lo+op.ln; k++ {
		e := s.lnk[k]
		if s.remStamp[e] == s.epoch && s.removals[e] > 0 {
			return true
		}
		free := float64(s.circuits[e])*s.theta - s.load[e]
		nd := 0.0
		if s.needStamp[e] == s.epoch {
			nd = s.needs[e]
		}
		if nd > free+1e-9 {
			return true
		}
	}
	return false
}

func (s *Scratch) eligibleOp(op *flatOp) bool {
	switch op.pub.Kind {
	case RemoveRoute:
		return true
	case ChangeRoute:
		if op.pub.Rate <= op.pub.OldRate {
			return true
		}
		delta := op.pub.Rate - op.pub.OldRate
		for k := op.lo; k < op.lo+op.ln; k++ {
			e := s.lnk[k]
			if float64(s.circuits[e])*s.theta < s.load[e]+delta-1e-9 {
				return false
			}
		}
		return true
	case AddRoute:
		for k := op.lo; k < op.lo+op.ln; k++ {
			e := s.lnk[k]
			if float64(s.circuits[e])*s.theta < s.load[e]+op.pub.Rate-1e-9 {
				return false
			}
		}
		return true
	case RemoveCircuit:
		e := op.edge
		return float64(s.circuits[e]-1)*s.theta >= s.load[e]-1e-9
	case AddCircuit:
		for _, f := range op.pub.Fibers {
			if s.fiberFree[f] <= 0 {
				return false
			}
		}
		return true
	}
	return false
}

// consumeOp applies the resources an op claims the moment it is selected,
// firing the waiters of every edge or fiber it touched so not-yet-scanned
// ops re-examine against the round's updated live state.
func (s *Scratch) consumeOp(op *flatOp) {
	switch op.pub.Kind {
	case AddRoute:
		for k := op.lo; k < op.lo+op.ln; k++ {
			e := s.lnk[k]
			s.load[e] += op.pub.Rate
			s.fireEdge(e)
		}
	case ChangeRoute:
		if d := op.pub.Rate - op.pub.OldRate; d > 0 {
			for k := op.lo; k < op.lo+op.ln; k++ {
				e := s.lnk[k]
				s.load[e] += d
				s.fireEdge(e)
			}
		}
	case RemoveCircuit:
		s.circuits[op.edge]--
		s.fireEdge(op.edge)
	case AddCircuit:
		for _, f := range op.pub.Fibers {
			s.fiberFree[f]--
			s.fireFiber(int32(f))
		}
	}
}

// releaseOp applies the resources an op frees once its round is over.
func (s *Scratch) releaseOp(op *flatOp) {
	switch op.pub.Kind {
	case RemoveRoute:
		for k := op.lo; k < op.lo+op.ln; k++ {
			e := s.lnk[k]
			s.load[e] -= op.pub.Rate
			s.fireEdge(e)
		}
	case ChangeRoute:
		if d := op.pub.Rate - op.pub.OldRate; d < 0 {
			for k := op.lo; k < op.lo+op.ln; k++ {
				e := s.lnk[k]
				s.load[e] += d
				s.fireEdge(e)
			}
		}
	case RemoveCircuit:
		for _, f := range op.pub.Fibers {
			s.fiberFree[f]++
			s.fireFiber(int32(f))
		}
	case AddCircuit:
		s.circuits[op.edge]++
		s.fireEdge(op.edge)
	}
}

// registerOp parks a rejected op on the waiter lists of every edge or
// fiber its eligibility decision read; it stays clean (skipped) until one
// of them fires.
func (s *Scratch) registerOp(oi int32, op *flatOp) {
	switch op.pub.Kind {
	case AddRoute, ChangeRoute:
		s.registerRouteEdges(oi, op)
	case RemoveCircuit:
		s.waitEdge(oi, op.edge)
	case AddCircuit:
		for _, f := range op.pub.Fibers {
			s.waitFiber(oi, int32(f))
		}
	}
}

func (s *Scratch) registerRouteEdges(oi int32, op *flatOp) {
	for k := op.lo; k < op.lo+op.ln; k++ {
		s.waitEdge(oi, s.lnk[k])
	}
}

func (s *Scratch) waitEdge(oi, e int32) {
	s.nodeOp = append(s.nodeOp, oi)
	s.nodeNext = append(s.nodeNext, s.eWait[e])
	s.eWait[e] = int32(len(s.nodeOp) - 1)
}

func (s *Scratch) waitFiber(oi, f int32) {
	s.nodeOp = append(s.nodeOp, oi)
	s.nodeNext = append(s.nodeNext, s.fWait[f])
	s.fWait[f] = int32(len(s.nodeOp) - 1)
}

func (s *Scratch) fireEdge(e int32) {
	n := s.eWait[e]
	if n < 0 {
		return
	}
	s.eWait[e] = -1
	for n >= 0 {
		if op := s.nodeOp[n]; s.ops[op].alive {
			s.ops[op].dirty = true
		}
		n = s.nodeNext[n]
	}
}

func (s *Scratch) fireFiber(f int32) {
	n := s.fWait[f]
	if n < 0 {
		return
	}
	s.fWait[f] = -1
	for n >= 0 {
		if op := s.nodeOp[n]; s.ops[op].alive {
			s.ops[op].dirty = true
		}
		n = s.nodeNext[n]
	}
}

// pickVictim mirrors the reference fallback: find the first not-yet-
// detoured new-state route (in the state's original route order) crossing
// a link whose RemoveCircuit is blocked by persisting load.
func (s *Scratch) pickVictim(newState *State) (int, bool) {
	s.vEpoch++
	any := false
	for _, oi := range s.order {
		op := &s.ops[oi]
		if op.pub.Kind != RemoveCircuit {
			continue
		}
		e := op.edge
		if float64(s.circuits[e]-1)*s.theta < s.load[e] {
			s.blockStamp[e] = s.vEpoch
			any = true
		}
	}
	if !any {
		return 0, false
	}
	for i, r := range newState.Routes {
		if s.detoured[i] {
			continue
		}
		for j := 0; j+1 < len(r.Path); j++ {
			e := s.edgeOfCanon(r.Path[j], r.Path[j+1])
			if s.blockStamp[e] == s.vEpoch && r.Rate > 0 {
				return i, true
			}
		}
	}
	return 0, false
}
