// Package core implements the paper's primary contribution: Owan's joint
// optimization of optical circuit setup, routing and rate allocation via a
// simulated-annealing search over network-layer topologies (Algorithms 1–3).
//
// The annealing state is the network-layer topology (a multiset of
// router-to-router circuits). Neighbors swap the endpoints of two circuits
// (the minimal move preserving per-site port counts). The energy of a state
// is the total throughput achievable after provisioning its circuits in the
// optical layer and greedily assigning multi-path routes and rates to the
// outstanding transfers. Warm-starting at the current topology both speeds
// convergence and keeps reconfigurations incremental.
package core

import (
	"math"
	"math/rand"
	"time"

	"owan/internal/alloc"
	"owan/internal/optical"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// Config tunes the Owan controller algorithms.
type Config struct {
	// Net is the physical network.
	Net *topology.Network
	// Policy orders transfers inside the energy function (SJF for
	// completion time, EDF for deadlines).
	Policy transfer.Policy
	// StarveSlots is t̂: a transfer unserved for this many slots is
	// promoted to the head of the order. 0 disables promotion rather than
	// selecting a default; DefaultConfig sets DefaultStarveSlots.
	StarveSlots int
	// Alpha is the cooling rate (the paper uses a schedule equivalent to a
	// few hundred iterations; 0.99 with EpsilonFrac 1e-3 gives ~690).
	Alpha float64
	// MaxIterations caps annealing iterations regardless of temperature.
	MaxIterations int
	// NeighborMoves is how many 2-circuit swaps one neighbor applies
	// (ablation knob; 1 is the paper's minimal 4-link move).
	NeighborMoves int
	// MaxChurn bounds how far the search may wander from the slot's
	// starting topology, in circuit adds+removes. This operationalizes the
	// paper's "keep the changes to the network incremental" consideration
	// (§3.2): without it, a long search drifts to high-throughput
	// topologies whose wholesale reconfiguration costs more than the
	// throughput gain. Negative disables the bound; 0 selects the default.
	MaxChurn int
	// Workers is the number of goroutines evaluating candidate energies
	// concurrently, each owning a cloned optical.State. 0 or 1 evaluates
	// inline on the controller's own state (the pre-parallel behavior).
	// Workers only changes wall-clock time, never the result: the search
	// trajectory is a pure function of (Seed, BatchSize, Replicas).
	Workers int
	// BatchSize is how many candidate neighbors are generated per
	// temperature batch and evaluated together (the paper's Figure 10d
	// knob is wall-clock per slot; batching buys more evaluations per
	// second). 0 defaults to max(Workers, 1), so serial configurations
	// keep the one-candidate-at-a-time chain. BatchSize is part of the
	// search semantics: changing it changes the trajectory.
	BatchSize int
	// DeltaEval enables incremental candidate evaluation: per accepted base
	// topology the optical layer is provisioned once and frozen as a
	// snapshot, and each candidate (which differs by a few swapped circuits)
	// is evaluated by releasing/provisioning only the changed links with an
	// undo journal, feeding a patched warm path in the allocator. Candidates
	// are generated as move lists and materialized only on acceptance. A
	// delta whose trust gate fails (scarce wavelengths or regenerators,
	// alternate routes, wavelength contention with a released fiber) falls
	// back to the cold path and is counted in SearchStats.DeltaFallbacks.
	// The trajectory is bit-identical to DeltaEval off: move generation
	// consumes the RNG draw-for-draw like ComputeNeighbor, and trusted delta
	// energies equal cold energies exactly (see internal/optical/delta.go).
	DeltaEval bool
	// Replicas is the parallel-tempering replica count R: the one annealing
	// loop runs R chains (rungs) at a geometric temperature ladder (rung 0
	// coldest, at the normal schedule temperature, drawing from the
	// controller RNG) and periodically proposes neighbor-rung state
	// exchanges under the Metropolis criterion on (ΔE, Δβ). Candidate
	// energies of all rungs are evaluated together on the worker pool.
	// 0 or 1 is a ladder of one rung: the paper's single chain, with no
	// exchanges. Replicas is part of the search semantics: the result is a
	// pure function of (Seed, BatchSize, Replicas), bit-identical at any
	// Workers/GOMAXPROCS. DeltaEval applies at R = 1 only; with Replicas > 1
	// candidates are evaluated materialized.
	Replicas int
	// WarmStart seeds each slot's cooling schedule from the previous slot's
	// accepted energy and final temperature instead of restarting the full
	// cold schedule: the starting temperature is scaled by the relative
	// drift between this slot's initial energy and the previous slot's
	// accepted energy (floored at warmTempFloor × the cold T0, capped at the
	// cold T0), and the stop temperature ε stays anchored to the cold
	// schedule, so a low-drift slot runs a genuinely shorter schedule. A
	// warm-started search also early-exits when the (coldest) chain's best
	// energy stops improving for convergeWindows exchange windows. The first
	// slot of a controller is always cold.
	WarmStart bool
	// Seed makes the probabilistic search reproducible.
	Seed int64
}

// Defaults from the paper.
const (
	DefaultAlpha       = 0.99
	DefaultMaxIter     = 2000
	DefaultStarveSlots = 3
	DefaultMaxChurn    = 16
)

// The fixed constants of the cooling schedule.
const (
	// EpsilonFrac stops the search when the temperature falls below
	// EpsilonFrac × the cold initial temperature; the early exit also reads
	// it as the relative best-energy gain that counts as progress.
	EpsilonFrac = 1e-3
	// initTempFrac scales the cold initial temperature relative to the
	// current throughput. Algorithm 1 uses the raw throughput (frac 1), but
	// energy deltas of a 2-circuit move are a few percent of total
	// throughput, so a fraction keeps more of the cooling schedule at useful
	// temperatures.
	initTempFrac = 0.02
	// exchangeInterval is how many candidate batches each rung runs between
	// exchange attempts; the same interval paces the early-exit check.
	exchangeInterval = 4
	// warmTempFloor floors the warm-started initial temperature at this
	// fraction of the cold one, so a zero-drift slot still explores a
	// little.
	warmTempFloor = 0.05
	// convergeWindows is the early-exit patience of warm-started slots and
	// R > 1 searches: after this many consecutive exchange windows whose
	// best-energy gain stays within EpsilonFrac (relative), the search stops
	// and reports SearchStats.EarlyExit.
	convergeWindows = 3
	// temperLadderStep is the geometric spacing of the tempering ladder:
	// rung r runs at T × temperLadderStep^r. Wide enough that the hottest of
	// a handful of rungs explores freely, close enough that neighbor-rung
	// exchanges still accept.
	temperLadderStep = 1.7
)

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = DefaultMaxIter
	}
	if c.NeighborMoves == 0 {
		c.NeighborMoves = 1
	}
	if c.MaxChurn == 0 {
		c.MaxChurn = DefaultMaxChurn
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.BatchSize < 1 {
		c.BatchSize = c.Workers
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	return c
}

// SearchStats reports what one ComputeNetworkState invocation did.
type SearchStats struct {
	Iterations    int
	Accepted      int
	InitialEnergy float64
	BestEnergy    float64
	// Churn is the number of circuit adds+removes between the input and the
	// returned topology.
	Churn   int
	Elapsed time.Duration
	// CacheHits counts candidate energies served from the topology memo
	// (computed earlier in the same search); CacheMisses counts the energy
	// evaluations of the rest.
	CacheHits   int
	CacheMisses int
	// WorkerEvals[i] is how many energies evaluator worker i computed
	// (one slot for serial runs). Its spread shows pool utilization.
	WorkerEvals []int
	// DeltaHits counts candidate energies computed on the trusted
	// incremental path; DeltaFallbacks counts deltas whose trust gate failed
	// and were recomputed cold. Both stay zero with DeltaEval off.
	// DeltaHits + DeltaFallbacks == the delta-mode energy evaluations.
	DeltaHits      int
	DeltaFallbacks int
	// SnapshotBuilds counts full base provisions frozen for the delta path
	// (one per accepted base topology the search evaluated candidates from).
	// With the persistent evaluator a warm-started slot whose base topology
	// matches the retained snapshot reports 0 builds.
	SnapshotBuilds int
	// ProvisionHits counts cold evaluations whose effective links were served
	// from the topology memo (recorded in this or an earlier slot);
	// ProvisionMisses counts the full provisionings that filled it.
	ProvisionHits   int
	ProvisionMisses int
	// Replicas is the effective tempering replica count of this search
	// (1 = single chain). With Replicas > 1, Iterations and Accepted sum
	// over every replica's chain.
	Replicas int
	// ExchangeAttempts counts proposed neighbor-rung state exchanges;
	// Exchanges counts the ones the Metropolis criterion accepted. Both stay
	// zero for single-chain searches.
	ExchangeAttempts int
	Exchanges        int
	// InitialTemp is the temperature the (coldest) cooling schedule actually
	// started from; WarmStarted reports whether it was seeded from the
	// previous slot instead of the cold schedule.
	InitialTemp float64
	WarmStarted bool
	// EarlyExit reports that the search stopped because the best energy
	// converged (warm-started slots and R > 1 searches only).
	EarlyExit bool
}

// NetworkState is the controller's output for one slot: the target
// network-layer topology, its optical realization, and the per-transfer
// allocation on the effective topology.
type NetworkState struct {
	Topology  *topology.LinkSet
	Plan      *optical.TopologyPlan
	Effective *topology.LinkSet
	Alloc     map[int][]transfer.PathRate
	Stats     SearchStats
}

// Owan is the controller core. It is not safe for concurrent use; the
// controller invokes it once per time slot. The evaluator behind
// ComputeNetworkState — worker goroutines, per-worker optical and allocator
// scratch, the delta snapshot — and the topology memo live as long as the Owan
// and is reused across slots; call Close when discarding a controller whose
// Workers > 1 searches have run, to stop the pool goroutines.
type Owan struct {
	cfg Config
	opt *optical.State
	al  *alloc.Allocator
	rng *rand.Rand
	// ev is the persistent evaluator, created lazily on the first
	// ComputeNetworkState call; memo is the topology memo it consults
	// (memo.go).
	ev   *evaluator
	memo *memo
	// disablePersist (tests) is the no-memo reference: a throwaway
	// evaluator per ComputeNetworkState and a nil memo. The differential
	// harnesses run both variants on equal seeds to pin that the memo and
	// the persistent evaluator never change a trajectory.
	disablePersist bool
	// onCacheHit, when set (tests), observes every energy served from the
	// memo with the candidate topology and the energy returned. Only the
	// classic (materialized) path invokes it; delta-mode memo activity is
	// visible through SearchStats instead.
	onCacheHit func(s *topology.LinkSet, energy float64)
	// Scratch for delta-mode neighbor generation (see delta.go).
	nbAcc    []pairDelta
	nbPatch  []topology.Link
	nbMerged []topology.Link
	// nbLinks is swapOnce's enumeration scratch: one sorted-view copy per
	// proposal was the other per-candidate allocation next to Clone.
	nbLinks []topology.Link
	// lsPool recycles candidate LinkSets through the annealing loop: a
	// batch's rejected candidates and computeNeighbor's intermediate hops
	// come back here and the next swapOnce copies over them instead of
	// allocating a fresh Clone (map, buckets, sorted view) per proposal.
	// Only pointers whose last reference is provably dropped may enter the
	// pool; anything that escapes — the returned best state, any rung's
	// current state — never does. Bounded by the largest round in flight
	// (Replicas×BatchSize plus NeighborMoves intermediates).
	lsPool []*topology.LinkSet
	// Warm-start state: the previous slot's accepted (best) energy and the
	// temperature its cooling schedule ended at. Recorded by every search
	// (recording is inert), consumed only when Config.WarmStart is set.
	// warmValid is false until the first search completes, so the first slot
	// of any controller always runs the cold schedule.
	warmE     float64
	warmT     float64
	warmValid bool
	// slotSeq counts ComputeNetworkState invocations; the ladder derives the
	// RNG streams of rungs r ≥ 1 and of its exchanges from (Seed, slotSeq,
	// stream) so consecutive slots explore independently yet reproducibly.
	slotSeq int64
}

// New creates a controller core for a network.
func New(cfg Config) *Owan {
	cfg = cfg.withDefaults()
	return newOn(cfg, optical.NewState(cfg.Net))
}

// newOn is New for a defaulted cfg on an optical state already built for
// cfg.Net.
func newOn(cfg Config, opt *optical.State) *Owan {
	return &Owan{
		cfg:  cfg,
		opt:  opt,
		al:   alloc.NewAllocator(),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		memo: newMemo(memoCap),
	}
}

// Net returns the physical network the controller core optimizes: the one it
// was configured with, or the reduced copy WithoutFiber made.
func (o *Owan) Net() *topology.Network { return o.cfg.Net }

// FiberPathIDs returns the fiber ids of the shortest fiber path between two
// sites on the controller core's network (nil if none). The slice is shared;
// callers must not mutate it.
func (o *Owan) FiberPathIDs(u, v int) []int { return o.opt.FiberPathIDs(u, v) }

// Close stops the evaluator worker pool. The controller stays usable — the
// next ComputeNetworkState restarts the pool on the same warm contexts — so
// Close is about goroutine hygiene, not teardown. Safe to call repeatedly,
// and a no-op for serial configurations.
func (o *Owan) Close() {
	if o.ev != nil {
		o.ev.close()
	}
}

// demands builds the ordered demand list for the energy function.
func (o *Owan) demands(active []*transfer.Transfer, slot int, slotSeconds float64) []alloc.Demand {
	ordered := append([]*transfer.Transfer(nil), active...)
	transfer.Order(ordered, o.cfg.Policy, slot, o.cfg.StarveSlots)
	return alloc.DemandsFromTransfers(ordered, slotSeconds)
}

// Energy computes the total throughput achievable on a candidate topology
// (Algorithm 3): provision circuits for every link, then greedily assign
// paths and rates to the ordered demands on the effective topology.
func (o *Owan) Energy(s *topology.LinkSet, demands []alloc.Demand) float64 {
	return energyOn(o.opt, o.al, o.cfg.Net.ThetaGbps, s, demands)
}

// energyOn is the allocation-free energy evaluation shared by the serial
// search loop and the parallel evaluator workers: realize the topology
// without materializing circuit records, then run the flat greedy allocator
// for the throughput alone. The (opt, al) pair must be exclusively owned by
// the calling goroutine; both provide reusable scratch, so steady-state
// evaluations perform near-zero heap allocations.
func energyOn(opt *optical.State, al *alloc.Allocator, theta float64, s *topology.LinkSet, demands []alloc.Demand) float64 {
	eff := opt.ProvisionEffectiveEnum(s)
	return al.ThroughputLinks(s.N, eff, theta, demands)
}

// SetUnitRegenWeights forwards the regenerator-balancing ablation knob to
// the optical layer. The knob changes what provisioning produces, so every
// piece of provisioning-derived persistent state is invalidated: the memo is
// cleared and the evaluator (whose retained snapshot and worker clones embed
// the old weights) is dropped and lazily rebuilt.
func (o *Owan) SetUnitRegenWeights(on bool) {
	o.opt.SetUnitRegenWeights(on)
	if o.ev != nil {
		o.ev.close()
		o.ev = nil
	}
	if o.memo != nil {
		o.memo.clear()
	}
	// The recorded warm energy was measured under the old weights; a
	// warm-started schedule seeded from it would under-explore.
	o.warmValid = false
}

// WithoutFiber returns a new controller core whose physical network lacks
// the given fiber (failure handling, §3.4). The annealing seed is carried
// over; topology state lives with the caller, so warm starts persist.
//
// The memo's effective links are migrated rather than dropped (its energies
// never are): an entry survives when its provisioning run stayed on the
// direct-segment fast path and
// every link of its topology routes identically on the reduced network —
// audited against the primary routes alone (optical.SameDirectRouting) for
// primary-only runs, or against the primary plus the full alternate table
// (optical.SameSegmentRouting) for runs that also drew on alternates —
// conditions under which re-provisioning provably reproduces the cached
// effective links. On a typical single-fiber failure most site pairs keep
// their routes, so the failure-response search starts with a warm memo
// instead of re-provisioning every candidate it has already seen.
func (o *Owan) WithoutFiber(fiberID int) *Owan {
	opt := o.opt.WithoutFiber(fiberID)
	if opt.Network() == o.cfg.Net {
		return o
	}
	cfg := o.cfg
	cfg.Net = opt.Network()
	nw := newOn(cfg, opt)
	if o.memo != nil {
		var links []topology.Link
		nw.memo.migrateFrom(o.memo, func(key []byte, direct bool) bool {
			var n int
			var ok bool
			n, links, ok = topology.DecodeKey(key, links[:0])
			if !ok || n != cfg.Net.NumSites() {
				return false
			}
			for _, l := range links {
				if direct {
					if !o.opt.SameDirectRouting(nw.opt, l.U, l.V) {
						return false
					}
				} else if !o.opt.SameSegmentRouting(nw.opt, l.U, l.V) {
					return false
				}
			}
			return true
		})
	}
	return nw
}

// ComputeNeighbor generates a random neighbor state by applying
// cfg.NeighborMoves elementary swaps (Algorithm 2): each swap picks two
// circuits (u,v) and (p,q), removes one unit of capacity from each, and
// adds (u,p) and (v,q). Per-site port usage is unchanged. nil is returned
// if the topology has too few circuits to rewire.
func (o *Owan) ComputeNeighbor(s *topology.LinkSet) *topology.LinkSet {
	return o.computeNeighbor(o.rng, s)
}

// computeNeighbor is ComputeNeighbor drawing from an explicit RNG, so every
// rung can run its own reproducible chain. Rung 0 passes o.rng, the stream
// ComputeNeighbor draws from.
func (o *Owan) computeNeighbor(rng *rand.Rand, s *topology.LinkSet) *topology.LinkSet {
	out := s
	for m := 0; m < o.cfg.NeighborMoves; m++ {
		n := o.swapOnce(rng, out)
		if n == nil {
			if m > 0 {
				return out
			}
			return nil
		}
		if out != s {
			// Intermediate hop: its content was just copied into n and
			// nothing else can reference it.
			o.putLinkSet(out)
		}
		out = n
	}
	return out
}

// takeLinkSet returns a mutable copy of src, reusing pooled storage when
// available. The copy is content-identical to src.Clone(), sorted view
// included, so pooling never changes a trajectory.
func (o *Owan) takeLinkSet(src *topology.LinkSet) *topology.LinkSet {
	if k := len(o.lsPool) - 1; k >= 0 {
		n := o.lsPool[k]
		o.lsPool = o.lsPool[:k]
		n.CopyFrom(src)
		return n
	}
	return src.Clone()
}

// putLinkSet surrenders a LinkSet to the recycling pool. The caller asserts
// it holds the last live reference.
func (o *Owan) putLinkSet(s *topology.LinkSet) {
	o.lsPool = append(o.lsPool, s)
}

// swapOnce applies one elementary 2-circuit swap, drawing from rng.
func (o *Owan) swapOnce(rng *rand.Rand, s *topology.LinkSet) *topology.LinkSet {
	links := s.AppendLinks(o.nbLinks[:0])
	o.nbLinks = links
	if len(links) == 0 || s.TotalCircuits() < 2 {
		return nil
	}
	// Sample circuit instances weighted by multiplicity.
	sample := func() (int, int) {
		k := rng.Intn(s.TotalCircuits())
		for _, l := range links {
			if k < l.Count {
				// Random orientation.
				if rng.Intn(2) == 0 {
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
		// Moving capacity from (u,v)+(p,q) to (u,p)+(v,q).
		if u == p || v == q {
			continue
		}
		if u == v || p == q {
			continue
		}
		// Reject a no-op (picking the same circuit twice when count==1 is
		// fine to allow; the result still differs unless identical pairs).
		// Validation reads the source topology, so rejected tries (up to 31
		// per swap) never pay for a clone; only a committed swap does.
		if s.Get(u, v) == 0 || s.Get(p, q) == 0 {
			continue
		}
		// If (u,v) == (p,q) as a link, it must hold at least 2 circuits.
		if canonEq(u, v, p, q) && s.Get(u, v) < 2 {
			continue
		}
		n := o.takeLinkSet(s)
		n.Add(u, v, -1)
		n.Add(p, q, -1)
		n.Add(u, p, 1)
		n.Add(v, q, 1)
		return n
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func canonEq(a, b, c, d int) bool {
	if a > b {
		a, b = b, a
	}
	if c > d {
		c, d = d, c
	}
	return a == c && b == d
}

// ComputeNetworkState runs the simulated-annealing search (Algorithm 1)
// starting from the current topology and returns the best state found
// together with the optical plan and the final allocation.
//
// The search proceeds in batches: per temperature step it generates up to
// Config.BatchSize candidate neighbors of the current state, evaluates
// their energies (concurrently when Config.Workers > 1, each topology at
// most once per search through the memo), and then reduces the batch in fixed
// generation order with the standard Metropolis acceptance rule. Candidate
// generation and acceptance draw from seeded RNGs on this goroutine, so for
// a given (Seed, BatchSize, Replicas) the result is bit-identical regardless
// of Workers or GOMAXPROCS. With Replicas 1 and BatchSize 1 the chain is
// exactly the classic serial annealing loop.
func (o *Owan) ComputeNetworkState(current *topology.LinkSet, active []*transfer.Transfer, slot int, slotSeconds float64) *NetworkState {
	start := time.Now()
	o.slotSeq++
	demands := o.demands(active, slot, slotSeconds)

	// The evaluator is controller-lifetime state: created once, then re-armed
	// per slot by begin(). Its worker pool, per-worker optical and allocator
	// scratch and delta snapshot all carry over, so a warm-started slot skips
	// the snapshot rebuild, and its first energy usually finds its effective
	// links in the memo.
	ev := o.ev
	if ev == nil || o.disablePersist {
		ev = newEvaluator(o)
		if o.disablePersist {
			defer ev.close()
		} else {
			o.ev = ev
		}
	}
	ev.begin(demands)

	sCur := current.Clone()
	eCur := ev.initial(sCur)
	stats := SearchStats{InitialEnergy: eCur, Replicas: o.cfg.Replicas}

	coldT0 := eCur * initTempFrac
	if coldT0 <= 0 {
		// No throughput achievable from the current state (e.g. no demands
		// yet): fall back to a nominal temperature so the loop still
		// explores a little when demands exist.
		coldT0 = 1
	}
	// The stop temperature stays anchored to the cold schedule even when
	// warm-starting: a warm schedule begins lower and therefore runs
	// genuinely fewer cooling steps to the same ε.
	epsilon := EpsilonFrac * coldT0
	T, warmStarted := o.warmStartTemp(eCur, coldT0)
	stats.InitialTemp = T
	stats.WarmStarted = warmStarted

	sBest, eBest, finalT := o.anneal(ev, current, sCur, eCur, T, epsilon, &stats)
	ev.finish(&stats)

	plan := o.opt.ProvisionTopology(sBest)
	eff := plan.Effective(sBest.N)
	if o.memo != nil {
		// Seed the memo with the returned topology's effective links: the
		// next slot warm-starts from sBest, so its first (and most expensive)
		// evaluation becomes a hit. plan.Effective is pinned identical to
		// ProvisionEffectiveEnum, so the entry equals what the cold path would
		// have stored.
		ev.initKey = sBest.AppendKey(ev.initKey[:0])
		ev.ctx0.eff = eff.AppendLinks(ev.ctx0.eff[:0])
		o.memo.putLinks(topology.KeyHash(ev.initKey), ev.initKey, ev.ctx0.eff, o.opt.DirectOnly(), o.opt.SegmentOnly())
	}
	res := o.al.Greedy(eff, o.cfg.Net.ThetaGbps, demands)
	stats.BestEnergy = eBest
	stats.Churn = current.Diff(sBest)
	stats.Elapsed = time.Since(start)
	// Record the warm-start state for the next slot (consumed only under
	// Config.WarmStart; see warmStartTemp).
	o.warmE, o.warmT, o.warmValid = eBest, finalT, true
	return &NetworkState{
		Topology:  sBest,
		Plan:      plan,
		Effective: eff,
		Alloc:     res.Alloc,
		Stats:     stats,
	}
}

// warmStartTemp derives the slot's starting temperature. Cold slots (warm
// start off, or nothing recorded yet) start at coldT0. A warm slot scales
// coldT0 by the relative drift between this slot's initial energy and the
// previous slot's accepted energy — similar demands need little reheating,
// a demand shock re-runs most of the schedule — floored at warmTempFloor
// (so zero-drift slots still explore), never below the temperature the
// previous schedule ended at, and capped at coldT0.
func (o *Owan) warmStartTemp(eCur, coldT0 float64) (float64, bool) {
	if !o.cfg.WarmStart || !o.warmValid || coldT0 <= 0 {
		return coldT0, false
	}
	drift := math.Abs(eCur-o.warmE) / math.Max(math.Abs(o.warmE), 1e-9)
	frac := math.Min(1, math.Max(warmTempFloor, drift))
	T := math.Max(coldT0*frac, o.warmT)
	if T > coldT0 {
		T = coldT0
	}
	return T, true
}

// anneal is the annealing loop (Algorithm 1), batched over the evaluator and
// run on a ladder of Config.Replicas rungs (tempering.go). Every rung starts
// from (sInit, eInit), rung 0 at temperature T; anneal returns the best state
// any rung saw, its energy, and rung 0's final temperature. Each round
// generates up to BatchSize neighbors per rung in rung order, evaluates the
// whole round in one evaluator call, and reduces each rung's slice in
// generation order with the Metropolis rule. At R = 1 this is the single
// chain on o.rng, and the trajectory is the documented pure function of
// (Seed, BatchSize). Each schedule rule holds for every R:
//   - every rung runs at most MaxIterations, and the search ends when rung 0
//     reaches the cap;
//   - the ε rule applies to rung 0 at the top of each round and after each
//     evaluated candidate: once rung 0 has cooled to epsilon the search
//     ends. The schedule alone bounds the search; Figure 10d budgets it by
//     setting MaxIterations = B and Alpha = EpsilonFrac^(1/B), so every
//     budget is one complete anneal from T0 down to ε;
//   - every exchangeInterval rounds the exchange sweep runs and, on slots
//     that warm-started or run more than one rung, the early exit stops the
//     search once the best energy stalls for convergeWindows windows.
//
// With DeltaEval at R = 1 candidates are move lists evaluated on the delta
// path and materialized only when they become the best or the current state
// (delta.go); otherwise they are LinkSets from the recycling pool.
func (o *Owan) anneal(ev *evaluator, current, sInit *topology.LinkSet, eInit, T, epsilon float64, stats *SearchStats) (*topology.LinkSet, float64, float64) {
	R := o.cfg.Replicas
	rungs := o.newRungs(sInit, eInit, T)
	var exRng *rand.Rand
	if R > 1 {
		exRng = rand.New(rand.NewSource(mixSeed(o.cfg.Seed, o.slotSeq, -1)))
	}
	sBest, eBest := sInit, eInit
	cands := make([]*topology.LinkSet, 0, R*o.cfg.BatchSize)
	needEval := make([]bool, 0, R*o.cfg.BatchSize)
	var energies []float64
	// Delta-mode state for rung 0: movesBuf reuses per-candidate move
	// buffers across rounds; linksCur/totalCur/churnCur cache the
	// enumeration, circuit count and churn of its current state, and baseSeq
	// counts its replacements so the evaluator knows when to rebuild its
	// snapshot (pointer identity is unreliable once old bases are garbage).
	useDelta := o.cfg.DeltaEval && R == 1
	var (
		movesBuf [][]swapMove
		linksCur []topology.Link
		curValid bool
		totalCur int
		churnCur int
		baseSeq  int
	)
	if useDelta {
		movesBuf = make([][]swapMove, o.cfg.BatchSize)
	}
	// A cold single chain (every first slot, and every slot with WarmStart
	// off) never early-exits: it runs the paper's schedule to ε.
	earlyExit := stats.WarmStarted || R > 1
	rounds, streak := 0, 0
	windowBest := eBest
	stop := false
	for !stop && rungs[0].iters < o.cfg.MaxIterations && rungs[0].T > epsilon {
		// Generate the round. Every candidate of a rung derives from that
		// rung's current state; candidates outside the churn trust region
		// around the slot's starting topology are rejected without an energy
		// evaluation (the move would not be deployable as an incremental
		// update) but still consume an iteration and a cooling step. In delta
		// mode the churn bound is applied incrementally over the touched
		// pairs; both paths draw from the RNG identically, so the
		// trajectories coincide. A rung that finds no neighbor ends the
		// search after this round.
		cands, needEval = cands[:0], needEval[:0]
		if useDelta && !curValid {
			linksCur = rungs[0].sCur.AppendLinks(linksCur[:0])
			totalCur = rungs[0].sCur.TotalCircuits()
			if o.cfg.MaxChurn > 0 {
				churnCur = current.Diff(rungs[0].sCur)
			}
			curValid = true
		}
		for r := range rungs {
			g := &rungs[r]
			k := min(o.cfg.BatchSize, o.cfg.MaxIterations-g.iters)
			for g.n = 0; g.n < k; g.n++ {
				if useDelta {
					mv, ok := o.neighborMoves(linksCur, totalCur, movesBuf[g.n][:0])
					movesBuf[g.n] = mv
					if !ok {
						stop = true
						break
					}
					needEval = append(needEval, o.cfg.MaxChurn <= 0 || o.churnAfter(current, g.sCur, churnCur, mv) <= o.cfg.MaxChurn)
					continue
				}
				sN := o.computeNeighbor(g.rng, g.sCur)
				if sN == nil {
					stop = true
					break
				}
				cands = append(cands, sN)
				needEval = append(needEval, o.cfg.MaxChurn <= 0 || current.Diff(sN) <= o.cfg.MaxChurn)
			}
		}
		if len(needEval) == 0 {
			break
		}
		if useDelta {
			energies = ev.energiesDelta(rungs[0].sCur, linksCur, baseSeq, movesBuf[:len(needEval)], needEval, energies)
		} else {
			energies = ev.energies(cands, needEval, energies)
		}

		// Deterministic reduction: walk each rung's slice in generation
		// order, applying acceptance against the rung's evolving current
		// state. An accepted candidate replaces it for the rest of the slice
		// even though later candidates were generated from the older state —
		// they are complete topologies, so adopting them stays valid.
		off := 0
	reduce:
		for r := range rungs {
			g := &rungs[r]
			base := g.sCur
			for i := off; i < off+g.n; i++ {
				g.iters++
				stats.Iterations++
				if !needEval[i] {
					g.T *= o.cfg.Alpha
					continue
				}
				eN := energies[i]
				var sN *topology.LinkSet
				if !useDelta {
					sN = cands[i]
				}
				if eN > eBest {
					if sN == nil {
						sN = materializeMoves(base, movesBuf[i])
					}
					sBest, eBest = sN, eN
				}
				if accept(g.eCur, eN, g.T, g.rng) {
					if sN == nil {
						sN = materializeMoves(base, movesBuf[i])
					}
					g.sCur, g.eCur = sN, eN
					stats.Accepted++
					curValid = false
					baseSeq++
				}
				g.T *= o.cfg.Alpha
				if r == 0 && g.T <= epsilon {
					stop = true
					break reduce
				}
			}
			off += g.n
		}
		// Recycle the round: a candidate that no rung holds as its current
		// state and that is not the running best has dropped its last
		// reference. (Exchanges only swap pointers rungs already hold, so
		// this accounting stays exact across sweeps.)
		for _, c := range cands {
			if c != sBest && !held(rungs, c) {
				o.putLinkSet(c)
			}
		}

		rounds++
		if rounds%exchangeInterval == 0 {
			exchange(rungs, exRng, (rounds/exchangeInterval)%2, stats)
			if earlyExit {
				if eBest-windowBest <= EpsilonFrac*math.Max(math.Abs(eBest), 1e-9) {
					streak++
					if streak >= convergeWindows {
						stats.EarlyExit = true
						stop = true
					}
				} else {
					streak = 0
				}
				windowBest = eBest
			}
		}
	}
	return sBest, eBest, rungs[0].T
}

// Reallocate provisions a given topology and computes the allocation on
// it without any search — used when the topology decision was already
// made (e.g. an externally chosen incremental reconfiguration).
func (o *Owan) Reallocate(topo *topology.LinkSet, active []*transfer.Transfer, slot int, slotSeconds float64) *NetworkState {
	demands := o.demands(active, slot, slotSeconds)
	plan := o.opt.ProvisionTopology(topo)
	eff := plan.Effective(topo.N)
	res := o.al.Greedy(eff, o.cfg.Net.ThetaGbps, demands)
	return &NetworkState{
		Topology:  topo,
		Plan:      plan,
		Effective: eff,
		Alloc:     res.Alloc,
		Stats:     SearchStats{BestEnergy: res.Throughput, InitialEnergy: res.Throughput},
	}
}

// accept implements the annealing acceptance probability: always accept
// improvements; accept a worse neighbor with probability e^{(eN-eCur)/T}.
func accept(eCur, eN, T float64, rng *rand.Rand) bool {
	if eN >= eCur {
		return true
	}
	return math.Exp((eN-eCur)/T) > rng.Float64()
}
