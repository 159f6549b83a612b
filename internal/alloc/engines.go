package alloc

import "math/bits"

// The two search engines over the live-neighbor bitset rows. One
// implementation per engine serves every topology size: a row is
// bitset.Words(n) words, one word up to 64 sites.
//
// The tiered greedy loop asks three kinds of question, and only one of them
// needs a shortest-path TREE: claiming a path. The other two — "is dst
// reachable at all?" and "is dst within this tier's hop budget?" — need just
// a hop distance, and profiling the ISP200 energy case shows they dominate:
// per evaluation roughly 280 searches end in a deferral and 30 in a failure,
// against 75 claims. A claiming BFS pays prevNode/prevEdge stores and edgeOf
// lookups for every label — all of it thrown away when the verdict is "too
// far, come back at tier 16" — and on ISP-class residuals a component sweep
// is expensive precisely because the graph is path-like: components run
// ~95% of the sites and diameters reach the 30s.
//
// Two engines split the work; runLoaded picks between them on whether
// probe() already holds a memo row for the source and whether that row's
// bound already answers the asking tier:
//
//   - resumeStamp (no bound for dst yet): a forward level-synchronous sweep
//     over the live-adjacency bitmaps that writes exactly one word per label
//     — the generation-stamped hop count — and SUSPENDS the moment dst is
//     labeled, keeping its visited set, frontier and level in per-source
//     rows (sVis/sFront/sLevel). The next probe miss from the same source
//     RESUMES where the sweep stopped instead of restarting, so one source
//     pays each BFS level at most once per load however many demands and
//     tiers query it; a source whose demands finish early never pays for the
//     deep tail of its component. Per level the sweep only touches words
//     containing frontier bits: members come from the compact id list the
//     previous level collected while it holds at most bSparse nodes, and
//     from a word-masked scan of the frontier bitmap otherwise. The id list
//     is kept per source beside the bitmap, so a resumed sweep enters sparse
//     enumeration directly.
//
//     Resumed levels mix ages: earlier levels saw residuals that takes have
//     since thinned. The stamps are still sound LOWER bounds, which is
//     exactly probe()'s contract: edges only ever leave the residual graph,
//     so for any current path src=p0..pk the adjacency (p(i-1), p(i)) held
//     at every earlier moment too, and level-synchronous expansion therefore
//     stamped each p(i) no later than level i — stamp(dst) <= current
//     distance. Deferring a demand to tier stamp(dst) just re-examines it
//     early, where the claim search repeats the comparison exactly; a
//     frontier that empties proves the visited set is src's complete current
//     component (unreachability is permanent), recorded as a failure cut.
//
//   - claimSearch (a bound that fits the tier or has decayed below it, and
//     every question of the sequential variant): a stealth forward BFS that
//     labels through a bitmap and writes ONLY the prevNode/prevEdge chains,
//     leaving rowGen, the stamps and probeFull untouched — claiming does not
//     destroy the source's resumable row. Its FIFO order and ascending-bit
//     labeling are the reference's scan order, so the chain it leaves for
//     bottleneck/take is bit-identical to the reference's, and its exact
//     current distance either confirms the claim or yields the exact
//     deferral tier. A decayed bound (stamped at an earlier tier than is
//     asking) goes here too: the exact distance settles "claim now", "defer
//     to tier d" and "unreachable" in one search, and the stored claim tree
//     usually answers it by fast path or repair.
//
// A bidirectional meet-in-the-middle sweep does not pay for decayed bounds:
// on path-like ISP residuals (frontiers average ~3 nodes, ball volume grows
// linearly with radius) two balls of radius d/2 cost what one of radius d
// does, and the stored claim tree usually answers without a search at all
// (measured numbers in DESIGN.md §9).
//
// Why the answers are exactly the reference's:
//
//   - Reachability is connectivity in the positive-residual graph. Both
//     engines walk src's component to exhaustion before reporting failure.
//     The exhausted visited set is a complete component whose outgoing
//     edges are all saturated, i.e. precisely the failure cut the reference
//     search would hit, so the doomed-word memo composes unchanged.
//
//   - Deferral tiers stay conservative and claims stay exact. resumeStamp's
//     lower bounds can re-examine a demand earlier than the reference flow
//     would (never later), where claimSearch's exact current distance makes
//     the same claim-or-defer decision the reference search would make.
//
//   - Claimed paths are bit-identical. claimSearch builds prev chains on the
//     current residuals in the reference scan order. It PERSISTS the tree it
//     builds and repairs it across takes instead of rebuilding per call: a
//     stored tree differs from a fresh search only where a tree edge has
//     saturated since it was built — an edge a BFS skipped because its head
//     was already labeled earlier in scan order changes neither labels,
//     order, nor parents when it leaves. See the claim-repair comment above
//     claimSearch for why the reused answers are the fresh ones bit for bit.
const bSparse = 64

// engineStats counts engine events at call granularity — increments live at
// function entries, returns, and one per-call mode summary, never inside a
// member loop — so the differential harnesses can assert the paths they mean
// to force (exhaustion early-outs, claim-tree reuse, sparse/dense frontier
// enumeration crossings) actually ran. A few hundred increments per
// evaluation; cumulative across loads, reset only by tests.
type engineStats struct {
	resume        uint64 // resumeStamp calls
	resumeExhaust uint64 // sweeps that ran the component dry (failure cut)
	resumeBound   uint64 // free truncation-bound answers (no expansion)
	claim         uint64 // claimSearch calls
	claimCut      uint64 // claim searches that exhausted (failure cut)
	claimFast     uint64 // claims answered from a stored chain, no search
	claimRepair   uint64 // tree resumes above a saturated tree edge
	claimResume   uint64 // tree extensions past the stored levels
	sweepSparse   uint64 // resumeStamp calls with >=1 sparse-list level
	sweepDense    uint64 // resumeStamp calls with >=1 word-swept level
	sweepMixed    uint64 // calls that crossed the bSparse threshold
}

// noteSweep folds one resumeStamp call's per-level enumeration modes into
// the sweep counters. crossed reports that the sweep crossed the bSparse
// threshold — between two levels of this call, or between the persisted
// entry mode and the frontier the call left behind (tier-truncated sweeps
// mostly advance one level per call, so the crossing usually straddles a
// suspension).
func (a *Allocator) noteSweep(usedSparse, usedDense, crossed bool) {
	if usedSparse {
		a.stat.sweepSparse++
	}
	if usedDense {
		a.stat.sweepDense++
	}
	if crossed {
		a.stat.sweepMixed++
	}
}

// resumeStamp answers "at how many hops, at least, is dst?" from src's
// resumable sweep row, starting one if the source has none this load and
// advancing it only as far as dst or the asking tier, whichever comes
// first. It reports unreachability exactly (the
// sweep ran the component to exhaustion) and otherwise a sound lower bound
// on the current hop count — exact at the moment dst's level was stamped.
// Two zero-expansion exits: a dst the row already stamped answers from the
// stamp, and a row whose completed levels already exceed the asking tier l
// answers sLevel+1 without expanding at all — a level-synchronous sweep
// truncated at level L stamps every node a current path of length <= L
// reaches (the same induction that makes the stamps lower bounds), so an
// unstamped dst satisfies d(src,dst) >= L+1.
//
// Frontier members are enumerated from the compact id list the previous
// level wrote while it held at most bSparse nodes, and by sweeping the
// frontier bitmap's words otherwise. The list lives in the source's own slot
// (sFrIDs, length sFrCnt), written in place as the level is labeled, so it
// survives suspensions for free: the next resume re-enters sparse
// enumeration directly. nf is zeroed word by word as the level is labeled,
// so a level needs no clear and no copy.
func (a *Allocator) resumeStamp(src, dst, l int) (bool, int) {
	if a.cutHit(src, dst) {
		return false, 0
	}
	a.stat.resume++
	mw, n := a.mw, a.n
	vis := a.sVis[src*mw : src*mw+mw]
	sd := a.stampDist[src*n : src*n+n]
	if a.rowGen[src] <= a.loadGen {
		a.gen++
		a.rowGen[src] = a.gen
		a.probeFull[src] = false
		sd[src] = int64(a.gen) << 32
		clear(vis)
		vis[src>>6] = 1 << uint(src&63)
		// The frontier is src alone, listed; the bitmap (sFront) is read
		// only when the list is not kept, and every level rewrites it.
		a.sFrIDs[src*bSparse] = int32(src)
		a.sFrCnt[src] = 1
		a.sLevel[src] = 0
	}
	dw, db := dst>>6, uint(dst&63)
	if vis[dw]>>db&1 == 1 {
		return true, int(int32(sd[dst]))
	}
	d := int64(a.sLevel[src])
	if int(d) >= l {
		a.stat.resumeBound++
		return true, int(d) + 1 // dst lies beyond every completed level
	}
	adj := a.liveAdj
	fr := a.sFront[src*mw : src*mw+mw]
	ids := a.sFrIDs[src*bSparse : src*bSparse+bSparse]
	gen := int64(a.rowGen[src])
	nf := a.sNext[:mw]
	clear(nf)
	cnt := int(a.sFrCnt[src]) // listed frontier members; 0 = sweep the bitmap
	usedSparse, usedDense := false, false
	crossed := false
	for {
		if cnt > 0 {
			usedSparse = true
			for _, v := range ids[:cnt] {
				row := adj[int(v)*mw : int(v)*mw+mw]
				for wi := range nf {
					nf[wi] |= row[wi]
				}
			}
		} else {
			usedDense = true
			for wi2, fw := range fr {
				base := wi2 << 6
				for m := fw; m != 0; m &= m - 1 {
					v := base + bits.TrailingZeros64(m)
					row := adj[v*mw : v*mw+mw]
					for wi := range nf {
						nf[wi] |= row[wi]
					}
				}
			}
		}
		d++
		lv := gen<<32 | d
		next := 0
		for wi := range nf {
			nw := nf[wi] &^ vis[wi]
			nf[wi] = 0
			fr[wi] = nw
			if nw == 0 {
				continue
			}
			vis[wi] |= nw
			base := wi << 6
			for m := nw; m != 0; m &= m - 1 {
				w := base + bits.TrailingZeros64(m)
				sd[w] = lv
				if next < bSparse {
					ids[next] = int32(w)
				}
				next++
			}
		}
		a.sLevel[src] = int32(d)
		if next > 0 && (next <= bSparse) != (cnt > 0) {
			crossed = true
		}
		cnt = next
		if next > bSparse {
			cnt = 0
		}
		a.sFrCnt[src] = int32(cnt)
		if vis[dw]>>db&1 == 1 {
			a.noteSweep(usedSparse, usedDense, crossed)
			return true, int(d)
		}
		if next == 0 {
			a.probeFull[src] = true
			a.doomCut(vis)
			a.noteSweep(usedSparse, usedDense, crossed)
			a.stat.resumeExhaust++
			return false, 0
		}
		if int(d) >= l {
			// The asking tier is answered: dst is beyond every completed
			// level, so d(src,dst) >= d+1 > l. Suspend here instead of
			// sweeping on to dst — the caller defers the demand to tier d+1,
			// where the next resume picks up from this frontier, so no level
			// is ever expanded twice and levels beyond the deferral tier are
			// paid only if a demand actually asks for them.
			a.noteSweep(usedSparse, usedDense, crossed)
			a.stat.resumeBound++
			return true, int(d) + 1
		}
	}
}

// claimSearch is the stealth claiming BFS: it writes dst's prevNode/prevEdge
// chain (the only state bottleneck/take read) and reports the exact current
// hop count, touching neither the stamps nor the probe rows — the source's
// resumable row survives the claim. Scan order is the reference's, so the
// chain is bit-identical to the one a fresh reference search would claim.
//
// Claim-tree repair. Each search persists the tree it builds — the labeling
// order (cQueue), the level boundaries (cEnds), the labeled bitmap (cVis)
// and the last complete level (cDepth) — so later claims from the same
// source reuse it instead of starting over:
//
//   - Chain fast path: if the stored tree labeled dst and every edge of
//     dst's stored prev chain still has positive residual, the chain IS the
//     answer — no search at all. Capacities only decrease within a run, so
//     live-now means the chain avoided every saturation since the tree was
//     built; such a chain is preserved verbatim by a fresh search (any
//     competitor for a clean node's parent sat at the same level before the
//     deletions — neighbor levels are within one hop and levels never
//     decrease when edges leave — so the lex-minimal parent, itself clean by
//     induction up the chain, stays the minimum), and its length is dst's
//     exact current hop count. This is also what makes same-source demand
//     batches cheap: every demand sharing the source rides one stored tree
//     until a take actually cuts the chain it needs.
//
//   - Subtree repair: otherwise the queue prefix up to the level ABOVE the
//     shallowest saturated tree edge is still exactly what a fresh search
//     would produce (levels, membership, order and parents — the same
//     argument as above applied level by level), so the search resumes by
//     re-expanding that level's stored frontier rather than from src. Only
//     the subtree hanging below the saturated edge — plus whatever shared
//     its levels — is rebuilt.
//
//   - Extension: a tree whose chains are all intact but which stopped (an
//     early exit at a shallower dst) before reaching this dst resumes from
//     its last complete level, paying only the levels it never built.
//
// A saturated NON-tree edge triggers none of this — the resume-point scan
// checks exactly the stored prev edges, lazily at claim time, so take keeps
// no per-edge book of which trees use it. Validity rides on cGen (a tree is
// live iff cGen[src] > loadGen; loadFromLinks advances gen past loadGen, so
// a tree built before any sweep of the load is live too); a source with no
// live tree gets a cold build. Every claim this engine answers —
// fast path, repaired, resumed or cold — is bit-identical to the map
// reference's fresh search, which the differential suites assert.
//
// The search resumes from level F of src's stored tree (F = 0 is a cold
// build). The kept queue prefix IS the canonical labeling order up to level
// F; labels are rebuilt from it, so discarded deeper levels leave no trace,
// and the queue and labels grow in place in the stored per-source rows —
// suspending the tree costs only the depth and gen stores at the exits.
func (a *Allocator) claimSearch(src, dst int) (bool, int) {
	if a.cutHit(src, dst) {
		return false, 0
	}
	a.stat.claim++
	mw, n := a.mw, a.n
	F := 0
	if a.cGen[src] > a.loadGen {
		if ok, hops := a.claimFastPath(src, dst); ok {
			a.stat.claimFast++
			return true, hops
		}
		F = a.claimResumePoint(src)
		if F < int(a.cDepth[src]) {
			a.stat.claimRepair++
		} else {
			a.stat.claimResume++
		}
	} else {
		// Cold build: seed the stored tree with its level 0.
		a.cQueue[src*n] = int32(src)
		a.cEnds[src*(n+1)] = 1
	}
	adj, edgeOf := a.liveAdj, a.edgeOf
	prevNE := a.prevNE[src*n : src*n+n]
	ce := a.cEnds[src*(n+1) : src*(n+1)+n+1]
	cq := a.cQueue[src*n : src*n+n : src*n+n]
	lab := a.cVis[src*mw : src*mw+mw]
	clear(lab)
	q := cq[:ce[F]]
	for _, v := range q {
		lab[v>>6] |= 1 << uint(v&63)
	}
	head := 0
	if F > 0 {
		head = int(ce[F-1])
	}
	depth := F
	levelEnd := len(q)
	a.cGen[src] = a.gen
	for ; head < len(q); head++ {
		if head == levelEnd {
			depth++
			levelEnd = len(q)
			ce[depth] = int32(levelEnd)
		}
		v := q[head]
		vLow := int64(v)
		vRow := adj[int(v)*mw : int(v)*mw+mw]
		for wi := 0; wi < mw; wi++ {
			nw := vRow[wi] &^ lab[wi]
			if nw == 0 {
				continue
			}
			lab[wi] |= nw
			base := wi << 6
			for ; nw != 0; nw &= nw - 1 {
				w := int32(base + bits.TrailingZeros64(nw))
				prevNE[w] = int64(edgeOf[int(v)*n+int(w)])<<32 | vLow
				if int(w) == dst {
					// Bits of nw above dst were OR'd into the stored bitmap
					// but never given prev entries; it must not claim them
					// (the fast path walks prev chains on its say-so).
					lab[wi] &^= nw & (nw - 1)
					a.cDepth[src] = int32(depth)
					return true, depth + 1
				}
				q = append(q, w)
			}
		}
	}
	a.cDepth[src] = int32(depth)
	a.doomCut(lab)
	a.stat.claimCut++
	return false, 0
}

// claimFastPath answers a claim from src's stored tree when dst is labeled
// there and its stored prev chain is fully live (every edge above resEps —
// the criterion under which claimSearch documents the chain is exactly what
// a fresh search would claim). The walk doubles as the hop count.
func (a *Allocator) claimFastPath(src, dst int) (bool, int) {
	if a.cVis[src*a.mw+dst>>6]>>uint(dst&63)&1 == 0 {
		return false, 0
	}
	caps := a.caps
	prevNE := a.prevNE[src*a.n : src*a.n+a.n]
	hops := 0
	for v := int32(dst); int(v) != src; {
		pv := prevNE[v]
		if caps[int32(pv>>32)] <= resEps {
			return false, 0
		}
		v = int32(pv)
		hops++
	}
	return true, hops
}

// claimResumePoint scans src's stored labeling order — which is level order
// — for the first node whose stored prev edge has saturated, and returns the
// level above it: the deepest level at which the stored tree is still
// guaranteed to match a fresh search node for node (levels strictly above
// the shallowest dirty node are preserved verbatim by edge deletions; see
// claimSearch). A node whose whole chain is dirty but whose own prev edge is
// live is caught through its ancestor, which sits earlier in the scan. With
// no dirty node the stored tree stands in full and the search just extends
// it from its last complete level. Nodes of the partial level beyond cDepth
// are not scanned: any resume re-derives them anyway.
func (a *Allocator) claimResumePoint(src int) int {
	n := a.n
	caps := a.caps
	prevNE := a.prevNE[src*n : src*n+n]
	cq := a.cQueue[src*n : src*n+n]
	ce := a.cEnds[src*(n+1) : src*(n+1)+n+1]
	depth := int(a.cDepth[src])
	d := 1
	for i := 1; i < int(ce[depth]); i++ {
		if i == int(ce[d]) {
			d++
		}
		if caps[int32(prevNE[cq[i]]>>32)] <= resEps {
			return d - 1
		}
	}
	return depth
}
