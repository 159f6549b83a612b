package core

import (
	"bytes"

	"owan/internal/alloc"
	"owan/internal/optical"
	"owan/internal/topology"
)

// This file implements the batch evaluation machinery behind the annealing
// search: a worker pool where every worker owns a cloned optical.State (so
// provisioning never shares mutable state across goroutines), consulting the
// controller's topology memo (memo.go). The coordinator keys every evaluated
// candidate once, serves its energy from the memo when this search already
// computed it, and hands the key to the job; a worker's cold path uses the
// same key for the memo's effective links.
//
// Determinism contract: the search trajectory is a pure function of
// (Config.Seed, Config.BatchSize, Config.Replicas). Neighbor generation and
// acceptance both happen on the coordinating goroutine using seeded RNGs
// (tempering.go); workers only compute energies, which are pure functions of
// (topology, demands) and therefore identical no matter which goroutine
// computes them or in which order results arrive. Workers and GOMAXPROCS
// never change the result.
//
// With Config.DeltaEval the pool additionally carries the incremental
// evaluation state: one immutable optical.Snapshot of the current base
// topology, rebuilt whenever the search accepts a move (ev.snapGen counts
// rebuilds), which workers load once and then evaluate candidates against
// via ProvisionDelta + ThroughputPatched + RevertDelta. A delta whose trust
// gate fails is recomputed on the cold path and counted in DeltaFallbacks —
// never silently diverged.

// evalJob asks a worker for the energy of one candidate: a materialized
// topology (classic mode) or a move list against the current snapshot base
// (delta mode; s stays nil and the worker materializes only on fallback),
// with the candidate's canonical key and its hash.
type evalJob struct {
	idx   int
	s     *topology.LinkSet
	moves []swapMove
	key   []byte
	hash  uint64
}

type evalResult struct {
	idx    int
	energy float64
}

// workerCtx is the per-goroutine evaluation state: an exclusively owned
// (optical state, allocator) pair plus the delta journal and scratch.
// loadedGen tracks which snapshot generation the optical state currently
// holds (-1 after a cold evaluation trashed it); baseGen tracks which
// generation the allocator's warm base corresponds to.
type workerCtx struct {
	id  int // worker slot for the per-worker counters
	opt *optical.State
	al  *alloc.Allocator

	j              optical.Journal
	acc            []pairDelta
	removed, added []topology.Link
	// Cold-path scratch: the candidate's requested-count patch, its merged
	// (U, V)-sorted enumeration, and the effective enumeration the
	// provisioner builds from it (or the memo hands back).
	patch, merged, eff []topology.Link
	loadedGen          int
	baseGen            int
}

// evaluator computes candidate energies, either inline on the controller's
// own optical state (workers <= 1) or on a pool of workers with cloned
// states. One evaluator lives as long as its Owan: the worker goroutines,
// per-worker (optical.State, Allocator) scratch, delta snapshot and key
// buffers all persist across ComputeNetworkState calls — begin() refreshes
// the per-search state (counters, the memo's energy stamp, since energies
// depend on the slot's demand set) without discarding any warm buffer, and
// the snapshot is only rebuilt when the base topology's canonical key
// actually changed, which it almost never has at the start of a
// warm-started slot.
type evaluator struct {
	o       *Owan
	demands []alloc.Demand
	workers int

	jobs    chan evalJob
	results chan evalResult
	done    chan struct{}
	running bool
	wctxs   []*workerCtx // persistent pool contexts (workers > 1)

	hits, misses int
	evals        []int // energy computations per worker slot

	// pending reuses the per-batch job buffer across batches.
	pending []evalJob

	// Delta-mode state. snap is rebuilt (generation snapGen) whenever the
	// base topology's canonical key changes (snapKey remembers it across
	// slots); between batch barriers it is immutable and shared read-only
	// with the workers, as is baseLinks. ctx0 is the inline context for
	// workers <= 1 and wraps the controller's own state.
	snap               optical.Snapshot
	snapGen            int
	snapSeq            int    // baseSeq the snapshot was built for (per search)
	snapKey            []byte // canonical key of the snapshot's base (cross-slot)
	baseKeyBuf         []byte
	baseLinks          []topology.Link // base's sorted enumeration, set per batch
	builds             int
	dHits, dFalls      []int // per worker slot, like evals
	provHits, provMiss []int // memo links served / provisioned per worker slot
	ctx0               workerCtx
	// Per-candidate keys of the running batch (keyBufs[i]), the initial
	// evaluation's key, and the enumeration scratch they are built from: a
	// candidate's links (classic) or its move patch merged into the base
	// (delta).
	keyBufs      [][]byte
	initKey      []byte
	candLinks    []topology.Link
	baseKeyLinks []topology.Link // scratch for the snapshot-gate key
	accKey       []pairDelta
	patchKey     []topology.Link
}

// newEvaluator builds the evaluator without starting any goroutine; begin
// starts (or restarts) the pool lazily.
func newEvaluator(o *Owan) *evaluator {
	ev := &evaluator{
		o:       o,
		workers: o.cfg.Workers,
	}
	if ev.workers < 1 {
		ev.workers = 1
	}
	ev.evals = make([]int, ev.workers)
	ev.dHits = make([]int, ev.workers)
	ev.dFalls = make([]int, ev.workers)
	ev.provHits = make([]int, ev.workers)
	ev.provMiss = make([]int, ev.workers)
	ev.snapSeq = -1
	ev.ctx0 = workerCtx{opt: o.opt, al: o.al, loadedGen: -1, baseGen: -1}
	if ev.workers > 1 {
		for w := 0; w < ev.workers; w++ {
			ev.wctxs = append(ev.wctxs, &workerCtx{
				id: w, opt: o.opt.Clone(), al: alloc.NewAllocator(),
				loadedGen: -1, baseGen: -1,
			})
		}
	}
	return ev
}

// begin readies the evaluator for one search: fresh demand set and counters,
// a new memo stamp — energies depend on the demands, so no recorded energy
// survives a slot — and a running pool. The controller's own optical state
// was overwritten by the previous slot's final provisioning, so the inline
// context forgets what it holds; worker
// clones still hold exactly the snapshot occupancy (RevertDelta restores it
// after every delta), so their generation counters stay valid and a
// retained snapshot lets them skip the reload entirely.
func (ev *evaluator) begin(demands []alloc.Demand) {
	ev.demands = demands
	ev.hits, ev.misses, ev.builds = 0, 0, 0
	for i := range ev.evals {
		ev.evals[i], ev.dHits[i], ev.dFalls[i] = 0, 0, 0
		ev.provHits[i], ev.provMiss[i] = 0, 0
	}
	ev.snapSeq = -1
	ev.ctx0.loadedGen = -1
	ev.ctx0.baseGen = -1 // the final Reallocate of the previous slot ran on o.al
	if ev.o.memo != nil {
		ev.o.memo.begin()
	}
	ev.ensureStarted()
}

// ensureStarted (re)spawns the worker goroutines. The pool contexts persist
// across restarts, so a closed-then-reused controller keeps its warm scratch.
func (ev *evaluator) ensureStarted() {
	if ev.workers <= 1 || ev.running {
		return
	}
	// runPending pushes a whole batch before draining any result, so the
	// channels must hold the largest batch the search can submit: the
	// tempered loop flattens all replicas' candidates into one call.
	depth := ev.o.cfg.BatchSize * ev.o.cfg.Replicas
	ev.jobs = make(chan evalJob, depth)
	ev.results = make(chan evalResult, depth)
	ev.done = make(chan struct{})
	for _, ctx := range ev.wctxs {
		go ev.worker(ctx.id, ctx)
	}
	ev.running = true
}

// worker evaluates jobs on its private optical state and allocator until
// the pool closes. Owning both means a worker's steady-state energy
// evaluations reuse the same scratch buffers job after job, so the hot loop
// does not allocate.
func (ev *evaluator) worker(id int, ctx *workerCtx) {
	for {
		select {
		case job := <-ev.jobs:
			ev.evals[id]++ // exclusive slot; read by coordinator after the batch barrier
			ev.results <- evalResult{idx: job.idx, energy: ev.run(ctx, job)}
		case <-ev.done:
			return
		}
	}
}

// run computes one job's energy on ctx: a move list on the delta path, a
// materialized candidate on the cold path.
func (ev *evaluator) run(ctx *workerCtx, job evalJob) float64 {
	if job.moves == nil {
		ctx.merged = job.s.AppendLinks(ctx.merged[:0])
		return ev.coldEnergy(ctx, job.s.N, job.key, job.hash)
	}
	e, hit := ev.deltaEnergy(ctx, job)
	if hit {
		ev.dHits[ctx.id]++
	} else {
		ev.dFalls[ctx.id]++
	}
	return e
}

// coldEnergy is the energy of the n-site topology whose (U, V)-sorted
// enumeration is ctx.merged and whose canonical key is (key, hash). The
// memo's effective links skip the optical provisioning — the expensive half
// of an energy — entirely: they are exactly what ProvisionEffectiveLinks
// would produce, and on a hit the context's occupancy (and its claim on a
// loaded snapshot) survives untouched. A miss provisions on the context's
// own state and records the links. Safe concurrently: the memo locks.
func (ev *evaluator) coldEnergy(ctx *workerCtx, n int, key []byte, hash uint64) float64 {
	theta := ev.o.cfg.Net.ThetaGbps
	if ev.o.memo != nil {
		if links, ok := ev.o.memo.links(hash, key, ctx.eff[:0]); ok {
			ctx.eff = links
			ev.provHits[ctx.id]++
			return ctx.al.ThroughputLinks(n, links, theta, ev.demands)
		}
		ev.provMiss[ctx.id]++
	}
	ctx.loadedGen = -1 // provisioning overwrites this context's occupancy
	ctx.eff = ctx.opt.ProvisionEffectiveLinks(ctx.merged, ctx.eff[:0])
	if ev.o.memo != nil {
		ev.o.memo.putLinks(hash, key, ctx.eff, ctx.opt.DirectOnly(), ctx.opt.SegmentOnly())
	}
	return ctx.al.ThroughputLinks(n, ctx.eff, theta, ev.demands)
}

// initial is the energy of the search's starting topology, on the inline
// context and outside the candidate counters. It is recorded in the memo, so
// a candidate that walks back to the start is a hit.
func (ev *evaluator) initial(s *topology.LinkSet) float64 {
	ctx := &ev.ctx0
	ctx.merged = s.AppendLinks(ctx.merged[:0])
	ev.initKey = topology.AppendKeyFromLinks(ev.initKey[:0], s.N, ctx.merged)
	h := topology.KeyHash(ev.initKey)
	e := ev.coldEnergy(ctx, s.N, ev.initKey, h)
	if ev.o.memo != nil {
		ev.o.memo.putEnergy(h, ev.initKey, e)
	}
	return e
}

// deltaEnergy evaluates one move-list candidate against the current
// snapshot: load the snapshot occupancy if this context doesn't hold it,
// apply the net link deltas through ProvisionDelta, and — when the trust
// gate passes — run the allocator's patched warm path. An untrusted delta is
// reverted and recomputed on the cold path, which may trash the context's
// occupancy and warm base; the generation counters bring both back on the
// next trusted evaluation. Reports whether the trusted fast path was taken.
func (ev *evaluator) deltaEnergy(ctx *workerCtx, job evalJob) (float64, bool) {
	theta := ev.o.cfg.Net.ThetaGbps
	ctx.acc = accumMoves(job.moves, ctx.acc[:0])
	// The snapshot's own trust bits gate every delta against it: if the base
	// provisioning had a resource-driven shortfall or a resource is near
	// exhaustion, no delta can ever be trusted, so skip the attempt (and the
	// snapshot load it needs) and go straight to the cold evaluation.
	// Statically infeasible base links are fine — they build zero circuits
	// in every provisioning order (see optical.Snapshot.TrustedBase).
	if ev.snap.TrustedBase() {
		if ctx.loadedGen != ev.snapGen {
			ctx.opt.LoadSnapshot(&ev.snap)
			ctx.loadedGen = ev.snapGen
		}
		if ctx.baseGen != ev.snapGen {
			ctx.al.SetBaseLinks(ev.snap.N(), ev.snap.EffLinks(), theta)
			ctx.baseGen = ev.snapGen
		}
		ctx.removed, ctx.added = ctx.removed[:0], ctx.added[:0]
		for _, pd := range ctx.acc {
			if pd.d < 0 {
				ctx.removed = append(ctx.removed, topology.Link{U: pd.u, V: pd.v, Count: -pd.d})
			} else {
				ctx.added = append(ctx.added, topology.Link{U: pd.u, V: pd.v, Count: pd.d})
			}
		}
		patch, trusted := ctx.opt.ProvisionDelta(&ev.snap, ctx.removed, ctx.added, &ctx.j)
		if trusted {
			e := ctx.al.ThroughputPatched(patch, ev.demands)
			ctx.opt.RevertDelta(&ctx.j)
			return e, true
		}
		ctx.opt.RevertDelta(&ctx.j)
	}
	// Cold fallback, on flat enumerations end to end: merge the move patch
	// into the base enumeration (exactly what materializing the candidate
	// and re-enumerating it would produce) and evaluate it cold — the same
	// circuit and allocation sequence as a from-scratch evaluation, with no
	// LinkSet built on either side.
	ctx.patch = patchMoves(ctx.patch[:0], ctx.acc, ev.baseLinks)
	ctx.merged = topology.MergePatch(ctx.merged[:0], ev.baseLinks, ctx.patch)
	return ev.coldEnergy(ctx, ev.snap.N(), job.key, job.hash), false
}

// runPending evaluates the batch's jobs the memo could not answer, inline
// or on the pool, and records their energies under the running search.
func (ev *evaluator) runPending(out []float64) {
	ev.misses += len(ev.pending)
	if ev.workers <= 1 {
		for _, job := range ev.pending {
			ev.evals[0]++
			out[job.idx] = ev.run(&ev.ctx0, job)
		}
	} else {
		for _, job := range ev.pending {
			ev.jobs <- job
		}
		for range ev.pending {
			r := <-ev.results
			out[r.idx] = r.energy
		}
	}
	if ev.o.memo != nil {
		for _, job := range ev.pending {
			ev.o.memo.putEnergy(job.hash, job.key, out[job.idx])
		}
	}
}

// lookup keys evaluated candidate i — whose (U, V)-sorted enumeration is
// links — into the batch's key buffers and serves its energy from the memo
// if this search already computed it. On a miss it queues the job, key
// attached; s is the materialized candidate (classic) or nil (delta).
func (ev *evaluator) lookup(i int, n int, links []topology.Link, s *topology.LinkSet, moves []swapMove, out []float64) {
	key := topology.AppendKeyFromLinks(ev.keyBufs[i][:0], n, links)
	ev.keyBufs[i] = key
	h := topology.KeyHash(key)
	if ev.o.memo != nil {
		if e, ok := ev.o.memo.energy(h, key); ok {
			ev.hits++
			out[i] = e
			if ev.o.onCacheHit != nil && s != nil {
				ev.o.onCacheHit(s, e)
			}
			return
		}
	}
	ev.pending = append(ev.pending, evalJob{idx: i, s: s, moves: moves, key: key, hash: h})
}

func (ev *evaluator) sizeOut(n int, out []float64) []float64 {
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	for i := range out {
		out[i] = 0
	}
	return out
}

// energies returns the energy of every candidate with needEval[i] set; other
// slots are left at zero. Memo lookups and fills happen here on the
// coordinating goroutine, so a batch containing a topology this search has
// already evaluated costs no evaluation at all.
func (ev *evaluator) energies(cands []*topology.LinkSet, needEval []bool, out []float64) []float64 {
	out = ev.sizeOut(len(cands), out)
	ev.pending = ev.pending[:0]
	ev.growKeys(len(cands))
	for i, s := range cands {
		if needEval[i] {
			ev.candLinks = s.AppendLinks(ev.candLinks[:0])
			ev.lookup(i, s.N, ev.candLinks, s, nil, out)
		}
	}
	ev.runPending(out)
	return out
}

// energiesDelta is the DeltaEval counterpart of energies: candidates are
// move lists against base. baseLinks must be base's sorted enumeration, and
// baseSeq a counter the caller bumps whenever base changes — it gates the
// snapshot rebuild (pointer identity is not enough, since a later base clone
// can reuse a freed address). The snapshot build runs on the controller's
// own optical state between batch barriers, so no worker is touching its
// clone concurrently.
func (ev *evaluator) energiesDelta(base *topology.LinkSet, baseLinks []topology.Link, baseSeq int, moves [][]swapMove, needEval []bool, out []float64) []float64 {
	out = ev.sizeOut(len(moves), out)
	ev.baseLinks = baseLinks
	if baseSeq != ev.snapSeq {
		// The per-search sequence number says the base may have changed, but
		// across slots it usually hasn't: a warm-started slot anneals from the
		// previous slot's accepted topology, whose snapshot this evaluator
		// still holds. Compare canonical keys and rebuild only on a real
		// change — on a match snapGen stays put, so pool workers keep their
		// loaded occupancy and warm allocator base too.
		ev.baseKeyLinks = base.AppendLinks(ev.baseKeyLinks[:0])
		key := topology.AppendKeyFromLinks(ev.baseKeyBuf[:0], base.N, ev.baseKeyLinks)
		ev.baseKeyBuf = key
		if ev.snapKey == nil || !bytes.Equal(key, ev.snapKey) {
			ev.o.opt.BuildSnapshot(&ev.snap, base)
			ev.snapGen++
			ev.builds++
			ev.snapKey = append(ev.snapKey[:0], key...)
			// BuildSnapshot left the controller's state holding exactly the
			// snapshot occupancy; the inline context is that same state.
			if ev.workers <= 1 {
				ev.ctx0.loadedGen = ev.snapGen
			}
		}
		ev.snapSeq = baseSeq
	}
	ev.pending = ev.pending[:0]
	ev.growKeys(len(moves))
	for i, mv := range moves {
		if needEval[i] {
			// Key the candidate without materializing it: merge its move
			// patch into the base enumeration. The encoding is pinned
			// byte-identical to LinkSet.Key, so delta and classic entries
			// interoperate.
			ev.accKey = accumMoves(mv, ev.accKey[:0])
			ev.patchKey = patchMoves(ev.patchKey[:0], ev.accKey, baseLinks)
			ev.candLinks = topology.MergePatch(ev.candLinks[:0], baseLinks, ev.patchKey)
			ev.lookup(i, base.N, ev.candLinks, nil, mv, out)
		}
	}
	ev.runPending(out)
	return out
}

func (ev *evaluator) growKeys(n int) {
	for len(ev.keyBufs) < n {
		ev.keyBufs = append(ev.keyBufs, nil)
	}
}

// finish copies the search's counters into stats. The pool keeps running —
// the evaluator is controller-lifetime state, stopped by Owan.Close.
func (ev *evaluator) finish(stats *SearchStats) {
	stats.CacheHits = ev.hits
	stats.CacheMisses = ev.misses
	stats.WorkerEvals = append([]int(nil), ev.evals...)
	stats.SnapshotBuilds = ev.builds
	for _, h := range ev.dHits {
		stats.DeltaHits += h
	}
	for _, f := range ev.dFalls {
		stats.DeltaFallbacks += f
	}
	for _, h := range ev.provHits {
		stats.ProvisionHits += h
	}
	for _, m := range ev.provMiss {
		stats.ProvisionMisses += m
	}
}

// close stops the worker pool; it is idempotent, and ensureStarted can spin
// the same contexts back up afterwards.
func (ev *evaluator) close() {
	if !ev.running {
		return
	}
	ev.running = false
	close(ev.done)
}
