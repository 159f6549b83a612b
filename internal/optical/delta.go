package optical

import (
	"math/bits"

	"owan/internal/topology"
)

// This file implements incremental (delta) provisioning: a frozen Snapshot
// of the fully provisioned base topology, against which a candidate that
// differs by a few swapped circuits is evaluated by releasing only the
// removed links' circuits and provisioning only the added ones, with an undo
// Journal so the state returns to the snapshot occupancy in O(delta). The
// annealing search no longer calls it — it evaluates every candidate cold,
// through the topology memo (internal/core) — but the benchmark's layer
// probes (bench/probes.go) still time it.
//
// Order-dependence and the trust rule. Cold provisioning walks all links in
// (U, V)-sorted order, so wavelength and regenerator choices depend on
// everything provisioned before; a delta necessarily replays only part of
// that order. The saving grace is that the annealing energy consumes only
// the EFFECTIVE CIRCUIT COUNTS, not the wavelength assignment: when the
// base snapshot built every requested circuit (clean), no resource is near
// exhaustion (not tight), and every added circuit provisions successfully
// without touching a contended or alternate resource, both the cold path
// and the delta path realize exactly the requested counts — so their
// energies are bit-identical even though their occupancies differ. Every
// condition that could break that equality is detected and reported as
// !trusted, and the caller must re-run the cold path (never a silent
// divergence). TestProvisionDeltaTrustedMatchesCold asserts exactly this
// contract over 300 seeds.

// tightWaveMargin is the wavelength scarcity guard: a snapshot is "tight" —
// and every delta against it falls back to cold evaluation — unless every
// fiber keeps at least min(tightWaveMargin, capacity) free wavelengths.
//
// The guard is calibrated against the divergence mechanism, not against
// occupancy equality: cold and delta provisioning may assign different
// wavelengths and regenerator sites to the same circuits without the energy
// noticing (only effective counts feed it), so the gate only has to rule
// out a circuit FAILING in one order but not the other. A wavelength failure
// needs a fiber within a handful of λ of exhaustion (a delta adds at most a
// few circuits, each claiming one λ per fiber), hence the per-snapshot
// margin. Regenerators need no snapshot-level margin: the 1/remaining
// weighting in findRegenRoute actively balances pools and the k-shortest
// enumeration detours around dry sites, so order can only flip a circuit
// between routes — never between success and failure — unless some pool
// runs near dry, where the weighting is at its steepest and a cold-order
// cascade can empty a pool the delta never did. That is gated per delta
// instead: any delta that consumes a regenerator leaving its pool below
// tightRegenMargin, or releases one from a pool the base had already drawn
// down that far, is flagged regenScarce and recomputed cold. The 300-seed
// differential harness — which includes ISP40-scale and regenerator-starved
// networks — asserts that this gate leaves zero silent divergence.
const tightWaveMargin = 8

// tightRegenMargin is the regenerator analogue of tightWaveMargin, applied
// per delta (see above): pools at or below it are close enough to empty
// that provisioning order can decide between success and failure.
const tightRegenMargin = 2

// snapCircuit is one provisioned circuit of the snapshot, stored as spans
// into the Snapshot's flat segment/regenerator arrays.
type snapCircuit struct {
	segOff, segLen     int32
	regenOff, regenLen int32
}

// snapLink mirrors LinkCircuits with circuits as a span into the flat
// circuit array.
type snapLink struct {
	u, v        int
	want, built int
	circOff     int32
}

// Snapshot freezes the optical realization of one base topology: the
// per-link circuit records (segments aliasing the State's immutable route
// tables). It is immutable after Build; its buffers are reused by the next
// Build.
type Snapshot struct {
	links []snapLink
	circs []snapCircuit
	segs  []Segment
	regs  []int

	tight    bool // scarcity margin violated (or an alternate route was needed)
	resShort bool // some shortfall was resource-driven, not static
}

// TrustedBase reports whether deltas against this snapshot are eligible for
// trust at all. A base qualifies when no resource is near exhaustion (not
// tight) and every circuit it failed to build was STATICALLY infeasible —
// no in-reach hop sequence through regenerator sites exists for the pair,
// so the circuit fails identically in every provisioning order. Such pairs
// contribute zero effective capacity on both the cold and the delta path
// and therefore cannot diverge; a resource-driven shortfall, by contrast,
// means some pool or fiber is exhausted and order starts to matter.
func (sn *Snapshot) TrustedBase() bool { return !sn.resShort && !sn.tight }

// findLink binary-searches the snapshot's sorted links for canonical (u, v).
func (sn *Snapshot) findLink(u, v int) *snapLink {
	if u > v {
		u, v = v, u
	}
	lo, hi := 0, len(sn.links)
	for lo < hi {
		mid := (lo + hi) / 2
		l := &sn.links[mid]
		if l.u < u || (l.u == u && l.v < v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sn.links) && sn.links[lo].u == u && sn.links[lo].v == v {
		return &sn.links[lo]
	}
	return nil
}

// BuildSnapshot provisions the topology from scratch — making exactly the
// same decisions as ProvisionTopology/ProvisionEffectiveEnum — and freezes the
// result into snap, reusing snap's buffers. The receiver State is left
// holding precisely the snapshot occupancy, which ProvisionDelta starts from.
func (s *State) BuildSnapshot(snap *Snapshot, ls *topology.LinkSet) {
	s.Reset()
	sc := s.scratchBuf()
	sc.links = ls.AppendLinks(sc.links[:0])

	snap.links = snap.links[:0]
	snap.circs = snap.circs[:0]
	snap.segs = snap.segs[:0]
	snap.regs = snap.regs[:0]
	snap.tight = false
	snap.resShort = false

	for _, l := range sc.links {
		sl := snapLink{u: l.U, v: l.V, want: l.Count, circOff: int32(len(snap.circs))}
		for k := 0; k < l.Count; k++ {
			if !s.provisionSnap(snap, l.U, l.V) {
				break
			}
			sl.built++
		}
		if sl.built < sl.want {
			// A statically infeasible pair (no regenerator-site hop sequence
			// within reach exists at all) builds zero circuits in every order;
			// only a shortfall on a statically feasible pair — or a partial
			// build — signals resource exhaustion and poisons delta trust.
			if sl.built > 0 || s.staticFeasible(l.U, l.V) {
				snap.resShort = true
			}
		}
		snap.links = append(snap.links, sl)
	}

	// Scarcity guard.
	for id, w := range s.fiberUse {
		if w == nil {
			continue
		}
		phi := s.fiberWaves[id]
		if phi-w.popcount() < min(tightWaveMargin, phi) {
			snap.tight = true
			break
		}
	}
}

// provisionSnap provisions one circuit with the same decision sequence as
// provision(), recording segments and regenerator sites into the snapshot's
// flat arrays. An alternate fiber route marks the snapshot tight: alternate
// usage means some primary route had no common free wavelength, which is a
// congestion signal the margins may not see. Reports success.
func (s *State) provisionSnap(snap *Snapshot, src, dst int) bool {
	hops, err := s.findRegenRoute(src, dst)
	if err != nil {
		return false
	}
	c := snapCircuit{segOff: int32(len(snap.segs)), regenOff: int32(len(snap.regs))}
	for i := 0; i+1 < len(hops); i++ {
		u, v := hops[i], hops[i+1]
		route, lambda := s.segmentFeasible(u, v)
		if lambda < 0 {
			return false // unreachable: findRegenRoute verified feasibility
		}
		if len(route.ids) == 0 || s.canReach(u, v) && &route.ids[0] != &s.pairPath[u][v][0] {
			snap.tight = true
		}
		for _, id := range route.ids {
			s.claimWave(id, lambda)
		}
		snap.segs = append(snap.segs, Segment{FiberIDs: route.ids, Wavelength: lambda, LengthKm: route.km})
		c.segLen++
		if i+1 < len(hops)-1 {
			s.setRegen(v, s.regenFree[v]-1)
			snap.regs = append(snap.regs, v)
			c.regenLen++
		}
	}
	s.nextID++
	snap.circs = append(snap.circs, c)
	return true
}

// waveOp is one journaled wavelength-bit mutation.
type waveOp struct {
	fiber  int32
	lambda int32
}

// Journal records the mutations of one ProvisionDelta so RevertDelta can
// restore the snapshot occupancy exactly. It also carries the per-delta
// trust verdict and the patch scratch. A Journal belongs to one worker.
type Journal struct {
	claims    []waveOp // bits set by added circuits
	releases  []waveOp // bits cleared by removed circuits
	regenTook []int32  // sites debited by added circuits
	regenGave []int32  // sites credited by removed circuits
	nextID    int

	patch []topology.Link

	// Trust flags (see the file comment for why each forces a fallback).
	contended   bool // an added circuit had no λ choice but one this delta released
	usedAlt     bool // an added circuit needed an alternate fiber route
	shortfall   bool // an added circuit failed, or a removal exceeded the base
	regenScarce bool // the delta touched a regenerator pool near empty (< tightRegenMargin)
	regenPath   bool // informational: an added circuit used regeneration
}

func (j *Journal) reset(nextID int) {
	j.claims = j.claims[:0]
	j.releases = j.releases[:0]
	j.regenTook = j.regenTook[:0]
	j.regenGave = j.regenGave[:0]
	j.patch = j.patch[:0]
	j.nextID = nextID
	j.contended, j.usedAlt, j.shortfall, j.regenScarce, j.regenPath = false, false, false, false, false
}

// releasedHere reports whether this delta released exactly (fiber, λ) —
// the wavelength-contention condition of the fallback rule.
func (j *Journal) releasedHere(fiber, lambda int32) bool {
	for _, op := range j.releases {
		if op.fiber == fiber && op.lambda == lambda {
			return true
		}
	}
	return false
}

// releasedOnRoute reports whether λ was released by this delta on any fiber
// of the route.
func (j *Journal) releasedOnRoute(ids []int, lambda int) bool {
	for _, id := range ids {
		if j.releasedHere(int32(id), int32(lambda)) {
			return true
		}
	}
	return false
}

// lambdaAvoiding returns the lowest wavelength that is free on every fiber
// of the route AND was not released by this delta on any of them, or -1 when
// no such wavelength exists. The λ an added circuit occupies never feeds the
// energy (only effective counts do), so steering around freshly released
// wavelengths is free — it just reserves the contention fallback for the
// genuinely ambiguous case where the released λ is the only option left.
func (s *State) lambdaAvoiding(ids []int, j *Journal) int {
	if len(ids) == 0 {
		return 0 // vacuous route, nothing to avoid
	}
	// Ascending set bits of the free-word intersection are exactly the
	// common free wavelengths in ascending order (see routeLambda), so the
	// released-λ filter walks only candidates instead of the whole range.
	first := s.fiberFree[ids[0]]
	nw := len(first)
	rest := ids[1:]
	for _, id := range rest {
		if l := len(s.fiberFree[id]); l < nw {
			nw = l
		}
	}
	for w := 0; w < nw; w++ {
		acc := first[w]
		for _, id := range rest {
			acc &= s.fiberFree[id][w]
		}
		for ; acc != 0; acc &= acc - 1 {
			l := w<<6 + bits.TrailingZeros64(acc)
			if !j.releasedOnRoute(ids, l) {
				return l
			}
		}
	}
	return -1
}

// ProvisionDelta evaluates a candidate topology that differs from the
// snapshot base by the given net link changes: removed[i].Count circuits
// torn down per removed pair, added[i].Count provisioned per added pair (a
// pair must not appear in both). The State must hold the snapshot occupancy
// (a fresh Build, or a RevertDelta after one). It returns the (U, V)-sorted
// patch of NEW effective counts for every touched pair — the shape
// topology.MergePatch takes — plus whether the result is trusted to be
// bit-identical to cold provisioning of the candidate.
// Untrusted results must be recomputed on the cold path; either way the
// caller must RevertDelta afterwards to restore the snapshot occupancy.
func (s *State) ProvisionDelta(snap *Snapshot, removed, added []topology.Link, j *Journal) ([]topology.Link, bool) {
	j.reset(s.nextID)
	trusted := snap.TrustedBase()

	// Phase 1: release the last Count circuits of every removed link.
	for _, r := range removed {
		sl := snap.findLink(r.U, r.V)
		rel := r.Count
		if sl == nil || sl.built < rel {
			if sl == nil {
				j.shortfall = true
				j.patch = append(j.patch, topology.Link{U: r.U, V: r.V, Count: 0})
				continue
			}
			// Removing circuits a statically infeasible pair never built is
			// order-independent: the candidate's remaining count builds zero
			// on the cold path too. Only a statically feasible pair that fell
			// short signals resource pressure.
			if s.staticFeasible(r.U, r.V) {
				j.shortfall = true
			}
			rel = sl.built
		}
		for k := sl.built - rel; k < sl.built; k++ {
			c := &snap.circs[int(sl.circOff)+k]
			for _, seg := range snap.segs[c.segOff : c.segOff+c.segLen] {
				for _, fid := range seg.FiberIDs {
					s.freeWave(fid, seg.Wavelength)
					j.releases = append(j.releases, waveOp{fiber: int32(fid), lambda: int32(seg.Wavelength)})
				}
			}
			for _, site := range snap.regs[c.regenOff : c.regenOff+c.regenLen] {
				// Crediting a nearly-dry pool means the base leaned on this
				// site hard; cold provisioning (which never drained it this
				// way) routes through the steepest part of the 1/free
				// weighting and may cascade into a different failure set.
				if s.regenFree[site] < tightRegenMargin {
					j.regenScarce = true
				}
				s.setRegen(site, s.regenFree[site]+1)
				j.regenGave = append(j.regenGave, int32(site))
			}
		}
		j.patch = append(j.patch, topology.Link{U: r.U, V: r.V, Count: sl.built - rel})
	}

	// Phase 2: provision the added circuits against the patched occupancy.
	for _, a := range added {
		base := 0
		if sl := snap.findLink(a.U, a.V); sl != nil {
			base = sl.built
		}
		built := 0
		for k := 0; k < a.Count; k++ {
			if !s.provisionDelta(a.U, a.V, j) {
				// A statically infeasible addition fails identically on the
				// cold path (zero circuits either way); a feasible pair that
				// fails here hit a resource wall and the delta cannot be
				// trusted to match cold ordering.
				if s.staticFeasible(a.U, a.V) {
					j.shortfall = true
				}
				break
			}
			built++
		}
		j.patch = append(j.patch, topology.Link{U: a.U, V: a.V, Count: base + built})
	}

	// The patch came out in caller list order; MergePatch needs
	// (U, V)-sorted.
	for i := 1; i < len(j.patch); i++ {
		for k := i; k > 0 && (j.patch[k].U < j.patch[k-1].U ||
			(j.patch[k].U == j.patch[k-1].U && j.patch[k].V < j.patch[k-1].V)); k-- {
			j.patch[k], j.patch[k-1] = j.patch[k-1], j.patch[k]
		}
	}

	trusted = trusted && !j.shortfall && !j.contended && !j.usedAlt && !j.regenScarce
	return j.patch, trusted
}

// provisionDelta provisions one circuit like provision(), journaling every
// mutation and flagging the conditions that invalidate trust. Reports
// success; on failure the partial claims remain journaled (RevertDelta
// cleans them up with everything else).
func (s *State) provisionDelta(src, dst int, j *Journal) bool {
	hops, err := s.findRegenRoute(src, dst)
	if err != nil {
		return false
	}
	if len(hops) > 2 {
		j.regenPath = true
	}
	for i := 0; i+1 < len(hops); i++ {
		u, v := hops[i], hops[i+1]
		route, lambda := s.segmentFeasible(u, v)
		if lambda < 0 {
			return false
		}
		if len(route.ids) == 0 || s.canReach(u, v) && &route.ids[0] != &s.pairPath[u][v][0] {
			j.usedAlt = true
		}
		// First-fit lands exactly on the λ the removed circuits just freed;
		// steer to the next common free wavelength instead, and flag
		// contention only when the released λ is the last one standing.
		if j.releasedOnRoute(route.ids, lambda) {
			if l := s.lambdaAvoiding(route.ids, j); l >= 0 {
				lambda = l
			} else {
				j.contended = true
			}
		}
		for _, id := range route.ids {
			s.claimWave(id, lambda)
			j.claims = append(j.claims, waveOp{fiber: int32(id), lambda: int32(lambda)})
		}
		if i+1 < len(hops)-1 {
			s.setRegen(v, s.regenFree[v]-1)
			if s.regenFree[v] < tightRegenMargin {
				j.regenScarce = true
			}
			j.regenTook = append(j.regenTook, int32(v))
		}
	}
	s.nextID++
	return true
}

// RevertDelta undoes a ProvisionDelta, restoring the State bit-identically
// to the snapshot occupancy it started from. Claims are undone before
// releases: a claim may have re-taken a wavelength this delta released (the
// contention case), and clearing claims first leaves the release-undo free
// to restore the original set bit.
func (s *State) RevertDelta(j *Journal) {
	for _, op := range j.claims {
		s.freeWave(int(op.fiber), int(op.lambda))
	}
	for _, op := range j.releases {
		s.claimWave(int(op.fiber), int(op.lambda))
	}
	for _, site := range j.regenTook {
		s.setRegen(int(site), s.regenFree[site]+1)
	}
	for _, site := range j.regenGave {
		s.setRegen(int(site), s.regenFree[site]-1)
	}
	s.nextID = j.nextID
}
