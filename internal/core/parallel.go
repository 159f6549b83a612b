package core

import (
	"owan/internal/alloc"
	"owan/internal/optical"
	"owan/internal/topology"
)

// This file implements the batch evaluation machinery behind the annealing
// search: a worker pool where every worker owns a cloned optical.State (so
// provisioning never shares mutable state across goroutines), consulting the
// controller's topology memo (memo.go). The coordinator keys every evaluated
// candidate once — merging its moves into its rung's enumeration — serves its
// energy from the memo when this search already computed it, and hands the
// enumeration and key to the job. A worker's one evaluation path, coldEnergy,
// takes the effective links from the memo or provisions them, then runs the
// greedy allocation.
//
// Determinism contract: the search trajectory is a pure function of
// (Config.Seed, Config.BatchSize, Config.Replicas). Neighbor generation and
// acceptance both happen on the coordinating goroutine using seeded RNGs
// (tempering.go); workers only compute energies, which are pure functions of
// (topology, demands) and therefore identical no matter which goroutine
// computes them or in which order results arrive. Workers and GOMAXPROCS
// never change the result.

// evalJob asks a worker for the energy of one candidate: its n-site
// (U, V)-sorted enumeration, with its canonical key and the key's hash.
type evalJob struct {
	idx   int
	n     int
	links []topology.Link
	key   []byte
	hash  uint64
}

type evalResult struct {
	idx    int
	energy float64
}

// workerCtx is the per-goroutine evaluation state: an exclusively owned
// (optical state, allocator) pair, and the effective enumeration the
// provisioner builds (or the memo hands back).
type workerCtx struct {
	id  int // worker slot for the per-worker counters
	opt *optical.State
	al  *alloc.Allocator
	eff []topology.Link
}

// evaluator computes candidate energies, either inline on the controller's
// own optical state (workers <= 1) or on a pool of workers with cloned
// states. One evaluator lives as long as its Owan: the worker goroutines,
// per-worker (optical.State, Allocator) scratch and the key buffers all
// persist across ComputeNetworkState calls — begin() refreshes the
// per-search state (counters, the memo's energy stamp, since energies depend
// on the slot's demand set) without discarding any warm buffer.
type evaluator struct {
	o       *Owan
	demands []alloc.Demand
	workers int

	jobs    chan evalJob
	results chan evalResult
	done    chan struct{}
	running bool
	wctxs   []*workerCtx // persistent pool contexts (workers > 1)

	hits, misses       int
	evals              []int // energy computations per worker slot
	provHits, provMiss []int // memo links served / provisioned per worker slot

	// pending reuses the per-batch job buffer across batches.
	pending []evalJob
	// ctx0 is the inline context for workers <= 1 and wraps the controller's
	// own state.
	ctx0 workerCtx
	// Per-candidate enumerations and keys of the running batch (linkBufs[i],
	// keyBufs[i]), the move scratch they are merged from, and the initial
	// evaluation's enumeration and key.
	linkBufs  [][]topology.Link
	keyBufs   [][]byte
	acc       []pairDelta
	patch     []topology.Link
	initLinks []topology.Link
	initKey   []byte
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
	ev.provHits = make([]int, ev.workers)
	ev.provMiss = make([]int, ev.workers)
	ev.ctx0 = workerCtx{opt: o.opt, al: o.al}
	if ev.workers > 1 {
		for w := 0; w < ev.workers; w++ {
			ev.wctxs = append(ev.wctxs, &workerCtx{id: w, opt: o.opt.Clone(), al: alloc.NewAllocator()})
		}
	}
	return ev
}

// begin readies the evaluator for one search: fresh demand set and counters,
// a new memo stamp — energies depend on the demands, so no recorded energy
// survives a slot — and a running pool.
func (ev *evaluator) begin(demands []alloc.Demand) {
	ev.demands = demands
	ev.hits, ev.misses = 0, 0
	for i := range ev.evals {
		ev.evals[i], ev.provHits[i], ev.provMiss[i] = 0, 0, 0
	}
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
			ev.results <- evalResult{idx: job.idx, energy: ev.coldEnergy(ctx, job.n, job.links, job.key, job.hash)}
		case <-ev.done:
			return
		}
	}
}

// coldEnergy is the energy of the n-site topology whose (U, V)-sorted
// enumeration is links and whose canonical key is (key, hash). The memo's
// effective links skip the optical provisioning — the expensive half of an
// energy — entirely: they are exactly what ProvisionEffectiveLinks would
// produce. A miss provisions on the context's own state and records the
// links. Safe concurrently: the memo locks.
func (ev *evaluator) coldEnergy(ctx *workerCtx, n int, links []topology.Link, key []byte, hash uint64) float64 {
	theta := ev.o.cfg.Net.ThetaGbps
	if ev.o.memo != nil {
		if eff, ok := ev.o.memo.links(hash, key, ctx.eff[:0]); ok {
			ctx.eff = eff
			ev.provHits[ctx.id]++
			return ctx.al.ThroughputLinks(n, eff, theta, ev.demands)
		}
		ev.provMiss[ctx.id]++
	}
	ctx.eff = ctx.opt.ProvisionEffectiveLinks(links, ctx.eff[:0])
	if ev.o.memo != nil {
		ev.o.memo.putLinks(hash, key, ctx.eff, ctx.opt.DirectOnly(), ctx.opt.SegmentOnly())
	}
	return ctx.al.ThroughputLinks(n, ctx.eff, theta, ev.demands)
}

// initial is the energy of the search's starting topology, on the inline
// context and outside the candidate counters. It is recorded in the memo, so
// a candidate that walks back to the start is a hit.
func (ev *evaluator) initial(s *topology.LinkSet) float64 {
	ev.initLinks = s.AppendLinks(ev.initLinks[:0])
	ev.initKey = topology.AppendKeyFromLinks(ev.initKey[:0], s.N, ev.initLinks)
	h := topology.KeyHash(ev.initKey)
	e := ev.coldEnergy(&ev.ctx0, s.N, ev.initLinks, ev.initKey, h)
	if ev.o.memo != nil {
		ev.o.memo.putEnergy(h, ev.initKey, e)
	}
	return e
}

// runPending evaluates the batch's jobs the memo could not answer, inline
// or on the pool, and records their energies under the running search.
func (ev *evaluator) runPending(out []float64) {
	ev.misses += len(ev.pending)
	if ev.workers <= 1 {
		for _, job := range ev.pending {
			ev.evals[0]++
			out[job.idx] = ev.coldEnergy(&ev.ctx0, job.n, job.links, job.key, job.hash)
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

// energies returns the energy of every candidate with eval set; other slots
// are left at zero. Each evaluated candidate is keyed by merging its moves
// into its rung's enumeration; memo lookups and fills happen here on the
// coordinating goroutine, so a batch containing a topology this search has
// already evaluated costs no evaluation at all.
func (ev *evaluator) energies(cands []candidate, out []float64) []float64 {
	out = ev.sizeOut(len(cands), out)
	ev.pending = ev.pending[:0]
	for len(ev.keyBufs) < len(cands) {
		ev.keyBufs = append(ev.keyBufs, nil)
		ev.linkBufs = append(ev.linkBufs, nil)
	}
	for i := range cands {
		c := &cands[i]
		if !c.eval {
			continue
		}
		ev.acc = accumMoves(c.moves, ev.acc[:0])
		ev.patch = patchMoves(ev.patch[:0], ev.acc, c.base)
		links := topology.MergePatch(ev.linkBufs[i][:0], c.base, ev.patch)
		key := topology.AppendKeyFromLinks(ev.keyBufs[i][:0], c.n, links)
		ev.linkBufs[i], ev.keyBufs[i] = links, key
		h := topology.KeyHash(key)
		if ev.o.memo != nil {
			if e, ok := ev.o.memo.energy(h, key); ok {
				ev.hits++
				out[i] = e
				if ev.o.onCacheHit != nil {
					ev.o.onCacheHit(c.n, links, e)
				}
				continue
			}
		}
		ev.pending = append(ev.pending, evalJob{idx: i, n: c.n, links: links, key: key, hash: h})
	}
	ev.runPending(out)
	return out
}

// finish copies the search's counters into stats. The pool keeps running —
// the evaluator is controller-lifetime state, stopped by Owan.Close.
func (ev *evaluator) finish(stats *SearchStats) {
	stats.CacheHits = ev.hits
	stats.CacheMisses = ev.misses
	stats.WorkerEvals = append([]int(nil), ev.evals...)
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
