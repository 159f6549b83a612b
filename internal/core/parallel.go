package core

import (
	"bytes"

	"owan/internal/alloc"
	"owan/internal/optical"
	"owan/internal/topology"
)

// This file implements the batch evaluation machinery behind the annealing
// search: a worker pool where every worker owns a cloned optical.State (so
// provisioning never shares mutable state across goroutines) and an LRU
// energy memoization cache keyed by the canonical topology encoding.
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

// energyCache is an LRU map from canonical topology keys to energies,
// bucketed by a 64-bit hash with full key-byte verification on every hit, so
// a hash collision can never return the wrong energy. It is only ever
// touched by the coordinating goroutine, so it needs no locking.
//
// The implementation is a slice arena with intrusive index-based links — no
// container/list nodes, no interface boxing, and no per-put key copy to a
// fresh allocation: an inserted key reuses its slot's retained buffer
// (evicted entries donate theirs), so a warmed-up cache performs zero heap
// allocations per operation. Energies depend on the demand set, which
// changes every slot, so the persistent evaluator calls reset() at the start
// of each search — the arena and its key buffers survive, the entries do
// not.
type energyCache struct {
	cap     int
	m       map[uint64]int32 // hash -> index of the bucket's chain head
	entries []cacheEntry     // arena; slots [0, used) are live
	used    int
	// Intrusive LRU list over arena indices: head = most recently used.
	head, tail int32
	// Shared backing for first-touch key copies: entries carve their key
	// capacity from here in blocks, so filling a fresh cache costs O(log n)
	// allocations rather than one per entry. Once carved, a slot's buffer is
	// retained and reused across evictions and resets.
	keyBlock []byte
}

type cacheEntry struct {
	hash       uint64
	key        []byte
	energy     float64
	prev, next int32 // LRU neighbors, -1 terminated
	bnext      int32 // next entry in the same hash bucket, -1 terminated
}

func newEnergyCache(capacity int) *energyCache {
	if capacity <= 0 {
		return nil
	}
	return &energyCache{
		cap:     capacity,
		m:       make(map[uint64]int32, capacity),
		entries: make([]cacheEntry, 0, capacity),
		head:    -1,
		tail:    -1,
	}
}

// find returns the arena index of the exact key (hash selects the bucket,
// the full key bytes decide), or -1.
func (c *energyCache) find(hash uint64, key []byte) int32 {
	idx, ok := c.m[hash]
	if !ok {
		return -1
	}
	for ; idx >= 0; idx = c.entries[idx].bnext {
		if bytes.Equal(c.entries[idx].key, key) {
			return idx
		}
	}
	return -1
}

func (c *energyCache) moveToFront(idx int32) {
	if c.head == idx {
		return
	}
	e := &c.entries[idx]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	}
	if c.tail == idx {
		c.tail = e.prev
	}
	e.prev = -1
	e.next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = idx
	}
	c.head = idx
	if c.tail < 0 {
		c.tail = idx
	}
}

// get returns the cached energy for the exact key, verifying the full key
// bytes — the hash only selects the bucket.
func (c *energyCache) get(hash uint64, key []byte) (float64, bool) {
	idx := c.find(hash, key)
	if idx < 0 {
		return 0, false
	}
	c.moveToFront(idx)
	return c.entries[idx].energy, true
}

// bucketRemove unlinks an entry from its hash bucket's chain.
func (c *energyCache) bucketRemove(idx int32) {
	e := &c.entries[idx]
	if head := c.m[e.hash]; head == idx {
		if e.bnext < 0 {
			delete(c.m, e.hash)
		} else {
			c.m[e.hash] = e.bnext
		}
		return
	}
	for p := c.m[e.hash]; p >= 0; p = c.entries[p].bnext {
		if c.entries[p].bnext == idx {
			c.entries[p].bnext = e.bnext
			return
		}
	}
}

// put inserts or refreshes an entry. The key bytes are copied into the
// slot's retained buffer, so callers reuse their key buffers across batches
// and the cache reuses its own across evictions.
func (c *energyCache) put(hash uint64, key []byte, energy float64) {
	if idx := c.find(hash, key); idx >= 0 {
		c.entries[idx].energy = energy
		c.moveToFront(idx)
		return
	}
	var idx int32
	if c.used < c.cap {
		if c.used == len(c.entries) {
			c.entries = append(c.entries, cacheEntry{})
		}
		idx = int32(c.used)
		c.used++
	} else {
		// Evict the LRU tail, reusing its slot and key buffer.
		idx = c.tail
		c.bucketRemove(idx)
		e := &c.entries[idx]
		c.tail = e.prev
		if c.tail >= 0 {
			c.entries[c.tail].next = -1
		}
		if c.head == idx {
			c.head = -1
		}
	}
	e := &c.entries[idx]
	e.hash = hash
	c.copyKey(e, key)
	e.energy = energy
	if h, ok := c.m[hash]; ok {
		e.bnext = h
	} else {
		e.bnext = -1
	}
	c.m[hash] = idx
	e.prev = -1
	e.next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = idx
	}
	c.head = idx
	if c.tail < 0 {
		c.tail = idx
	}
}

// copyKey stores key into the slot's retained buffer. Slots whose buffer is
// too small (first touch, or a longer key after eviction) carve a fresh
// capacity from the shared key block; keys within one search have near-equal
// lengths (same network, port-bound link counts), so a quarter of slack
// makes re-carving rare.
func (c *energyCache) copyKey(e *cacheEntry, key []byte) {
	if cap(e.key) >= len(key) {
		e.key = append(e.key[:0], key...)
		return
	}
	need := len(key) + len(key)/4
	if len(c.keyBlock)+need > cap(c.keyBlock) {
		// Old carvings keep referencing their own backing arrays.
		c.keyBlock = make([]byte, 0, min(max(64*need, 4096), max(1<<16, need)))
	}
	carved := c.keyBlock[len(c.keyBlock) : len(c.keyBlock) : len(c.keyBlock)+need]
	c.keyBlock = c.keyBlock[:len(c.keyBlock)+need]
	e.key = append(carved, key...)
}

// reset empties the cache while keeping the arena and every slot's key
// buffer for reuse — the per-slot refresh of the persistent evaluator.
func (c *energyCache) reset() {
	clear(c.m)
	c.used = 0
	c.head, c.tail = -1, -1
}

// evalJob asks a worker for the energy of one candidate: a materialized
// topology (classic mode) or a move list against the current snapshot base
// (delta mode; s stays nil and the worker materializes only on fallback).
type evalJob struct {
	idx   int
	s     *topology.LinkSet
	moves []swapMove
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
	// Cold-fallback scratch: the candidate's requested-count patch, its
	// merged (U, V)-sorted enumeration, and the effective enumeration the
	// provisioner builds from it. keyBuf holds provision-cache keys.
	patch, merged, eff []topology.Link
	keyBuf             []byte
	loadedGen          int
	baseGen            int
}

// evaluator computes candidate energies, either inline on the controller's
// own optical state (workers <= 1) or on a pool of workers with cloned
// states. One evaluator lives as long as its Owan: the worker goroutines,
// per-worker (optical.State, Allocator) scratch, delta snapshot, and cache
// arenas all persist across ComputeNetworkState calls — begin() refreshes
// the per-search state (counters, memoized energies, which depend on the
// slot's demand set) without discarding any warm buffer, and the snapshot
// is only rebuilt when the base topology's canonical key actually changed,
// which it almost never has at the start of a warm-started slot.
type evaluator struct {
	o       *Owan
	demands []alloc.Demand
	workers int
	cache   *energyCache

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
	// with the workers, as is base (read only on the cold fallback path).
	// ctx0 is the inline context for workers <= 1 and wraps the controller's
	// own state.
	delta              bool
	snap               optical.Snapshot
	snapGen            int
	snapSeq            int    // baseSeq the snapshot was built for (per search)
	snapKey            []byte // canonical key of the snapshot's base (cross-slot)
	baseKeyBuf         []byte
	base               *topology.LinkSet
	baseLinks          []topology.Link // base's sorted enumeration, set per batch
	builds             int
	dHits, dFalls      []int // per worker slot, like evals
	provHits, provMiss []int // provision-cache activity per worker slot
	ctx0               workerCtx
	keyBufs            [][]byte
	hashes             []uint64
	candLinks          []topology.Link // scratch for classic-mode cache keys
	baseKeyLinks       []topology.Link // scratch for the snapshot-gate key
	accKey             []pairDelta
	patchKey           []topology.Link
	mergedKey          []topology.Link
}

// newEvaluator builds the evaluator without starting any goroutine; begin
// starts (or restarts) the pool lazily.
func newEvaluator(o *Owan) *evaluator {
	ev := &evaluator{
		o:       o,
		workers: o.cfg.Workers,
		cache:   newEnergyCache(o.cfg.EnergyCacheSize),
		delta:   o.cfg.DeltaEval,
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
// an emptied (but buffer-retaining) energy cache — energies depend on the
// demands, so entries never survive a slot — and a running pool. The
// controller's own optical state was overwritten by the previous slot's
// final provisioning, so the inline context forgets what it holds; worker
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
	if ev.cache != nil {
		ev.cache.reset()
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
			if job.moves != nil {
				e, hit := ev.deltaEnergy(ctx, job.moves)
				if hit {
					ev.dHits[id]++
				} else {
					ev.dFalls[id]++
				}
				ev.results <- evalResult{idx: job.idx, energy: e}
			} else {
				ev.results <- evalResult{idx: job.idx, energy: ev.energyFull(ctx, job.s)}
			}
		case <-ev.done:
			return
		}
	}
}

// energyFull is the classic (materialized-candidate) energy with the
// demand-independent provision LRU consulted first: on a hit the optical
// provisioning — the expensive half of an energy — is skipped entirely and
// the allocator runs on the cached effective enumeration, which is exactly
// what ProvisionEffective would have produced (the map is a pure function
// of the topology). Used by pool workers, the inline path, and the initial
// evaluation of every search; safe concurrently, the cache locks.
func (ev *evaluator) energyFull(ctx *workerCtx, s *topology.LinkSet) float64 {
	theta := ev.o.cfg.Net.ThetaGbps
	pc := ev.o.provCache
	if pc == nil {
		ctx.loadedGen = -1 // provisioning overwrites this context's occupancy
		return energyOn(ctx.opt, ctx.al, theta, s, ev.demands)
	}
	// Enumerate into the retained scratch and key from it: s.AppendKey would
	// allocate a fresh link slice per evaluation (LinkSet.Links).
	ctx.merged = s.AppendLinks(ctx.merged[:0])
	key := topology.AppendKeyFromLinks(ctx.keyBuf[:0], s.N, ctx.merged)
	ctx.keyBuf = key
	h := topology.KeyHash(key)
	if links, n, ok := pc.get(h, key, ctx.eff[:0]); ok {
		ctx.eff = links
		ev.provHits[ctx.id]++
		return ctx.al.ThroughputLinks(n, links, theta, ev.demands)
	}
	ev.provMiss[ctx.id]++
	ctx.loadedGen = -1 // provisioning overwrites this context's occupancy
	ctx.eff = ctx.opt.ProvisionEffectiveLinks(ctx.merged, ctx.eff[:0])
	pc.put(h, key, s.N, ctx.eff, ctx.opt.DirectOnly(), ctx.opt.SegmentOnly())
	return ctx.al.ThroughputLinks(s.N, ctx.eff, theta, ev.demands)
}

// deltaEnergy evaluates one move-list candidate against the current
// snapshot: load the snapshot occupancy if this context doesn't hold it,
// apply the net link deltas through ProvisionDelta, and — when the trust
// gate passes — run the allocator's patched warm path. An untrusted delta is
// reverted and recomputed cold (materializing the candidate), which trashes
// the context's occupancy and warm base; the generation counters bring both
// back on the next trusted evaluation. Reports whether the trusted fast path
// was taken.
func (ev *evaluator) deltaEnergy(ctx *workerCtx, moves []swapMove) (float64, bool) {
	theta := ev.o.cfg.Net.ThetaGbps
	ctx.acc = accumMoves(moves, ctx.acc[:0])
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
	// and re-enumerating it would produce), provision it, and allocate on
	// the effective links — the same circuit and allocation sequence as a
	// from-scratch evaluation, with no LinkSet built on either side. The
	// provision LRU short-circuits the provisioning when this candidate's
	// effective links are already known — in which case the context's
	// occupancy (and its claim on the loaded snapshot) survives untouched.
	ctx.patch = ctx.patch[:0]
	for _, pd := range ctx.acc {
		ctx.patch = append(ctx.patch, topology.Link{U: pd.u, V: pd.v, Count: linksGet(ev.baseLinks, pd.u, pd.v) + pd.d})
	}
	ctx.merged = topology.MergePatch(ctx.merged[:0], ev.baseLinks, ctx.patch)
	if pc := ev.o.provCache; pc != nil {
		key := topology.AppendKeyFromLinks(ctx.keyBuf[:0], ev.snap.N(), ctx.merged)
		ctx.keyBuf = key
		h := topology.KeyHash(key)
		if links, n, ok := pc.get(h, key, ctx.eff[:0]); ok {
			ctx.eff = links
			ev.provHits[ctx.id]++
			return ctx.al.ThroughputLinks(n, links, theta, ev.demands), false
		}
		ev.provMiss[ctx.id]++
		ctx.loadedGen = -1 // the cold provisioning below overwrites the occupancy
		ctx.eff = ctx.opt.ProvisionEffectiveLinks(ctx.merged, ctx.eff[:0])
		pc.put(h, key, ev.snap.N(), ctx.eff, ctx.opt.DirectOnly(), ctx.opt.SegmentOnly())
		return ctx.al.ThroughputLinks(ev.snap.N(), ctx.eff, theta, ev.demands), false
	}
	ctx.loadedGen = -1 // the cold provisioning below overwrites the occupancy
	ctx.eff = ctx.opt.ProvisionEffectiveLinks(ctx.merged, ctx.eff[:0])
	return ctx.al.ThroughputLinks(ev.snap.N(), ctx.eff, theta, ev.demands), false
}

// runPending evaluates the batch's uncached jobs, inline or on the pool.
func (ev *evaluator) runPending(out []float64) {
	if ev.workers <= 1 {
		for _, job := range ev.pending {
			ev.evals[0]++
			if job.moves != nil {
				e, hit := ev.deltaEnergy(&ev.ctx0, job.moves)
				if hit {
					ev.dHits[0]++
				} else {
					ev.dFalls[0]++
				}
				out[job.idx] = e
			} else {
				out[job.idx] = ev.energyFull(&ev.ctx0, job.s)
			}
		}
		return
	}
	for _, job := range ev.pending {
		ev.jobs <- job
	}
	for range ev.pending {
		r := <-ev.results
		out[r.idx] = r.energy
	}
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
// slots are left at zero. Cache lookups and fills happen here on the
// coordinating goroutine, so a batch containing a previously seen topology
// costs no evaluation at all.
func (ev *evaluator) energies(cands []*topology.LinkSet, needEval []bool, out []float64) []float64 {
	out = ev.sizeOut(len(cands), out)
	ev.pending = ev.pending[:0]
	if ev.cache != nil {
		ev.growKeys(len(cands))
	}
	for i, s := range cands {
		if !needEval[i] {
			continue
		}
		if ev.cache != nil {
			ev.candLinks = s.AppendLinks(ev.candLinks[:0])
			key := topology.AppendKeyFromLinks(ev.keyBufs[i][:0], s.N, ev.candLinks)
			ev.keyBufs[i] = key
			ev.hashes[i] = topology.KeyHash(key)
			if e, ok := ev.cache.get(ev.hashes[i], key); ok {
				ev.hits++
				out[i] = e
				if ev.o.onCacheHit != nil {
					ev.o.onCacheHit(s, e)
				}
				continue
			}
		}
		ev.pending = append(ev.pending, evalJob{idx: i, s: s})
	}
	ev.misses += len(ev.pending)
	ev.runPending(out)
	if ev.cache != nil {
		for _, job := range ev.pending {
			ev.cache.put(ev.hashes[job.idx], ev.keyBufs[job.idx], out[job.idx])
		}
	}
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
		ev.base = base
	}
	ev.pending = ev.pending[:0]
	if ev.cache != nil {
		ev.growKeys(len(moves))
	}
	for i, mv := range moves {
		if !needEval[i] {
			continue
		}
		if ev.cache != nil {
			key, h := ev.deltaKey(i, base, baseLinks, mv)
			if e, ok := ev.cache.get(h, key); ok {
				ev.hits++
				out[i] = e
				continue
			}
		}
		ev.pending = append(ev.pending, evalJob{idx: i, moves: mv})
	}
	ev.misses += len(ev.pending)
	ev.runPending(out)
	if ev.cache != nil {
		for _, job := range ev.pending {
			ev.cache.put(ev.hashes[job.idx], ev.keyBufs[job.idx], out[job.idx])
		}
	}
	return out
}

// deltaKey computes candidate i's canonical cache key without materializing
// it: merge the move patch into the retained base enumeration and encode.
// The encoding is pinned byte-identical to LinkSet.Key, so delta-mode and
// classic entries interoperate.
func (ev *evaluator) deltaKey(i int, base *topology.LinkSet, baseLinks []topology.Link, moves []swapMove) ([]byte, uint64) {
	ev.accKey = accumMoves(moves, ev.accKey[:0])
	ev.patchKey = ev.patchKey[:0]
	for _, pd := range ev.accKey {
		ev.patchKey = append(ev.patchKey, topology.Link{U: pd.u, V: pd.v, Count: base.Get(pd.u, pd.v) + pd.d})
	}
	ev.mergedKey = topology.MergePatch(ev.mergedKey[:0], baseLinks, ev.patchKey)
	key := topology.AppendKeyFromLinks(ev.keyBufs[i][:0], base.N, ev.mergedKey)
	ev.keyBufs[i] = key
	h := topology.KeyHash(key)
	ev.hashes[i] = h
	return key, h
}

func (ev *evaluator) growKeys(n int) {
	for len(ev.keyBufs) < n {
		ev.keyBufs = append(ev.keyBufs, nil)
	}
	if cap(ev.hashes) < n {
		ev.hashes = make([]uint64, n)
	}
	ev.hashes = ev.hashes[:n]
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
