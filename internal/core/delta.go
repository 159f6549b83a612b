package core

import (
	"owan/internal/topology"
)

// This file implements the lazy-candidate machinery behind Config.DeltaEval.
// Without it the search materializes every neighbor as a full LinkSet clone
// before evaluating it; at ISP scale that clone (plus the per-candidate
// Links() enumeration and churn Diff) dominates the coordinator and caps the
// speedup of both the worker pool and the optical/allocation delta paths. In
// delta mode a candidate is just its move list — the base topology plus up
// to NeighborMoves swapMoves — and is materialized only if it is accepted or
// becomes the best state.
//
// Determinism: neighborMoves consumes the seeded RNG draw-for-draw exactly
// like ComputeNeighbor/swapOnce (same sample walk over the same sorted
// enumeration, same orientation draws, same validation order, same 32-try
// budget), so for a given (Seed, BatchSize) the delta-mode trajectory is
// bit-identical to the materialized one. The ≥300-seed differential harness
// in delta_search_test.go asserts exactly that.

// swapMove is one elementary 2-circuit swap: remove one circuit from (U, V)
// and one from (P, Q), add one to (U, P) and one to (V, Q).
type swapMove struct {
	U, V, P, Q int
}

// pairDelta is the net circuit-count change of one canonical pair.
type pairDelta struct {
	u, v, d int
}

// accumMoves folds a move list into net per-pair deltas, (u, v)-sorted with
// zero entries dropped (a pair removed by one move and re-added by another
// nets out). The returned slice aliases buf.
func accumMoves(moves []swapMove, buf []pairDelta) []pairDelta {
	add := func(x, y, d int) {
		if x > y {
			x, y = y, x
		}
		lo := 0
		for lo < len(buf) && (buf[lo].u < x || (buf[lo].u == x && buf[lo].v < y)) {
			lo++
		}
		if lo < len(buf) && buf[lo].u == x && buf[lo].v == y {
			buf[lo].d += d
			return
		}
		buf = append(buf, pairDelta{})
		copy(buf[lo+1:], buf[lo:])
		buf[lo] = pairDelta{u: x, v: y, d: d}
	}
	for _, mv := range moves {
		add(mv.U, mv.V, -1)
		add(mv.P, mv.Q, -1)
		add(mv.U, mv.P, 1)
		add(mv.V, mv.Q, 1)
	}
	w := 0
	for i := range buf {
		if buf[i].d != 0 {
			buf[w] = buf[i]
			w++
		}
	}
	return buf[:w]
}

// churnAfter returns current.Diff of base with the moves applied, given
// churnBase = current.Diff(base), by summing the change over the touched
// pairs alone.
func (o *Owan) churnAfter(current, base *topology.LinkSet, churnBase int, moves []swapMove) int {
	o.nbAcc = accumMoves(moves, o.nbAcc[:0])
	for _, pd := range o.nbAcc {
		cur := current.Get(pd.u, pd.v)
		b := base.Get(pd.u, pd.v)
		churnBase += abs(cur-b-pd.d) - abs(cur-b)
	}
	return churnBase
}

// linksGet returns the count of canonical pair (u, v) in a (U, V)-sorted
// enumeration, by binary search.
func linksGet(links []topology.Link, u, v int) int {
	if u > v {
		u, v = v, u
	}
	lo, hi := 0, len(links)
	for lo < hi {
		mid := (lo + hi) / 2
		if links[mid].U < u || (links[mid].U == u && links[mid].V < v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(links) && links[lo].U == u && links[lo].V == v {
		return links[lo].Count
	}
	return 0
}

// patchMoves appends the patch that applies the net deltas acc to the
// (U, V)-sorted base enumeration: each touched pair with its new count, in
// (U, V) order, as topology.MergePatch takes it.
func patchMoves(dst []topology.Link, acc []pairDelta, base []topology.Link) []topology.Link {
	for _, pd := range acc {
		dst = append(dst, topology.Link{U: pd.u, V: pd.v, Count: linksGet(base, pd.u, pd.v) + pd.d})
	}
	return dst
}

// swapOnceMove is swapOnce against a sorted enumeration instead of a
// LinkSet. The RNG consumption is identical: Intn(total) plus an orientation
// Intn(2) per sample, two samples per try, up to 32 tries.
func (o *Owan) swapOnceMove(links []topology.Link, total int) (swapMove, bool) {
	if len(links) == 0 || total < 2 {
		return swapMove{}, false
	}
	sample := func() (int, int) {
		k := o.rng.Intn(total)
		for _, l := range links {
			if k < l.Count {
				if o.rng.Intn(2) == 0 {
					return l.U, l.V
				}
				return l.V, l.U
			}
			k -= l.Count
		}
		panic("unreachable")
	}
	for try := 0; try < 32; try++ {
		u, v := sample()
		p, q := sample()
		if u == p || v == q {
			continue
		}
		if u == v || p == q {
			continue
		}
		if linksGet(links, u, v) == 0 || linksGet(links, p, q) == 0 {
			continue
		}
		if canonEq(u, v, p, q) && linksGet(links, u, v) < 2 {
			continue
		}
		return swapMove{U: u, V: v, P: p, Q: q}, true
	}
	return swapMove{}, false
}

// neighborMoves is ComputeNeighbor without materialization: it appends the
// moves of one neighbor of the base topology to buf. baseLinks must be the
// base's sorted enumeration and total its circuit count (invariant under
// swaps, so it never changes mid-candidate). For NeighborMoves > 1 the later
// swaps sample from the merged enumeration of base plus the moves so far —
// byte-identical to the Links() of the intermediate topology swapOnce sees.
// ok is false only when the first swap finds no valid move, matching
// ComputeNeighbor returning nil.
func (o *Owan) neighborMoves(baseLinks []topology.Link, total int, buf []swapMove) ([]swapMove, bool) {
	for m := 0; m < o.cfg.NeighborMoves; m++ {
		links := baseLinks
		if len(buf) > 0 {
			o.nbAcc = accumMoves(buf, o.nbAcc[:0])
			o.nbPatch = patchMoves(o.nbPatch[:0], o.nbAcc, baseLinks)
			o.nbMerged = topology.MergePatch(o.nbMerged[:0], baseLinks, o.nbPatch)
			links = o.nbMerged
		}
		mv, ok := o.swapOnceMove(links, total)
		if !ok {
			if m > 0 {
				return buf, true
			}
			return buf, false
		}
		buf = append(buf, mv)
	}
	return buf, true
}

// materializeMoves clones the base and applies the moves in the same Add
// order as swapOnce, so the result is exactly the LinkSet the classic path
// would have produced for this candidate.
func materializeMoves(base *topology.LinkSet, moves []swapMove) *topology.LinkSet {
	s := base.Clone()
	for _, mv := range moves {
		s.Add(mv.U, mv.V, -1)
		s.Add(mv.P, mv.Q, -1)
		s.Add(mv.U, mv.P, 1)
		s.Add(mv.V, mv.Q, 1)
	}
	return s
}
