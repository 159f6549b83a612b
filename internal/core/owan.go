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
	// promoted to the head of the order (0 disables).
	StarveSlots int
	// Alpha is the cooling rate (the paper uses a schedule equivalent to a
	// few hundred iterations; 0.99 with EpsilonFrac 1e-3 gives ~690).
	Alpha float64
	// EpsilonFrac stops the search when the temperature falls below
	// EpsilonFrac × the initial temperature.
	EpsilonFrac float64
	// MaxIterations caps annealing iterations regardless of temperature.
	MaxIterations int
	// TimeBudget, if positive, stops the search after this wall-clock
	// duration (the knob of Figure 10d).
	TimeBudget time.Duration
	// InitTempFrac scales the initial temperature relative to the current
	// throughput. Algorithm 1 uses the raw throughput (frac 1), but energy
	// deltas of a 2-circuit move are a few percent of total throughput, so
	// a fraction keeps more of the cooling schedule at useful temperatures.
	InitTempFrac float64
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
	// trajectory is a pure function of (Seed, BatchSize).
	Workers int
	// BatchSize is how many candidate neighbors are generated per
	// temperature batch and evaluated together (the paper's Figure 10d
	// knob is wall-clock per slot; batching buys more evaluations per
	// second). 0 defaults to max(Workers, 1), so serial configurations
	// keep the one-candidate-at-a-time chain. BatchSize is part of the
	// search semantics: changing it changes the trajectory.
	BatchSize int
	// EnergyCacheSize bounds the per-search energy memoization cache in
	// entries (2-circuit swaps frequently revisit topologies while
	// cooling). 0 disables caching. The cache never changes results —
	// only whether an energy is recomputed.
	EnergyCacheSize int
	// ProvisionCacheSize bounds the controller-lifetime provision memoization
	// cache in entries: a map from network-layer topologies to their effective
	// (optically realized) link enumerations. Provisioning is a pure function
	// of the topology — independent of demands and of prior provisioning — so
	// unlike the energy cache this one persists across slots, and the
	// warm-started first evaluation of a slot is typically a hit. 0 selects
	// DefaultProvisionCache; negative disables the cache. Like the energy
	// cache it never changes results, only whether a provisioning is
	// recomputed.
	ProvisionCacheSize int
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
	// Replicas is the parallel-tempering replica count R: the search runs R
	// annealing chains at a geometric temperature ladder (rung 0 coldest, at
	// the normal schedule temperature) and periodically proposes neighbor-rung
	// state exchanges under the Metropolis criterion on (ΔE, Δβ). Candidate
	// energies of all rungs are evaluated together on the worker pool.
	// 0 or 1 selects the single-chain search (today's behavior, exactly).
	// Replicas is part of the search semantics: the result is a pure function
	// of (Seed, BatchSize, Replicas), bit-identical at any Workers/GOMAXPROCS.
	// With Replicas > 1 candidates are evaluated on the classic materialized
	// path (DeltaEval applies to the single-chain search only).
	Replicas int
	// ExchangeInterval is how many candidate batches each replica runs
	// between exchange attempts; the same interval paces the early-exit
	// convergence check (warm-started and tempered searches only). 0 selects
	// DefaultExchangeInterval.
	ExchangeInterval int
	// WarmStart seeds each slot's cooling schedule from the previous slot's
	// accepted energy and final temperature instead of restarting the full
	// InitTempFrac schedule: the starting temperature is scaled by the
	// relative drift between this slot's initial energy and the previous
	// slot's accepted energy (floored at WarmTempFloor × the cold T0, capped
	// at the cold T0), and the stop temperature ε stays anchored to the cold
	// schedule, so a low-drift slot runs a genuinely shorter schedule. A
	// warm-started search also early-exits when the (coldest) chain's best
	// energy stops improving. The first slot of a controller is always cold.
	WarmStart bool
	// WarmTempFloor floors the warm-started initial temperature as a
	// fraction of the cold initial temperature, so a zero-drift slot still
	// explores a little. 0 selects DefaultWarmTempFloor; must be ≤ 1
	// (1 makes warm start inert).
	WarmTempFloor float64
	// ConvergeWindows is the early-exit patience for warm-started and
	// tempered searches: after this many consecutive exchange windows whose
	// best-energy improvement stays within EpsilonFrac (relative), the
	// search stops and reports SearchStats.EarlyExit. 0 selects
	// DefaultConvergeWindows; negative disables early exit.
	ConvergeWindows int
	// Seed makes the probabilistic search reproducible.
	Seed int64
}

// Defaults from the paper.
const (
	DefaultAlpha       = 0.99
	DefaultEpsilonFrac = 1e-3
	DefaultMaxIter     = 2000
	DefaultStarveSlots = 3
	DefaultInitTemp    = 0.02
	DefaultMaxChurn    = 16
	// DefaultProvisionCache is the provision-cache capacity when
	// Config.ProvisionCacheSize is 0. Entries are an effective-link
	// enumeration each (a few KB on ISP100), so the default stays small.
	DefaultProvisionCache = 128
	// DefaultExchangeInterval is how many batches each tempering replica
	// runs between exchange attempts (and between early-exit checks).
	DefaultExchangeInterval = 4
	// DefaultWarmTempFloor floors the warm-started initial temperature at
	// this fraction of the cold one.
	DefaultWarmTempFloor = 0.05
	// DefaultConvergeWindows is the early-exit patience in exchange windows.
	DefaultConvergeWindows = 3
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
	if c.EpsilonFrac == 0 {
		c.EpsilonFrac = DefaultEpsilonFrac
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = DefaultMaxIter
	}
	if c.InitTempFrac == 0 {
		c.InitTempFrac = DefaultInitTemp
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
	if c.ProvisionCacheSize == 0 {
		c.ProvisionCacheSize = DefaultProvisionCache
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.ExchangeInterval < 1 {
		c.ExchangeInterval = DefaultExchangeInterval
	}
	if c.WarmTempFloor == 0 {
		c.WarmTempFloor = DefaultWarmTempFloor
	}
	if c.ConvergeWindows == 0 {
		c.ConvergeWindows = DefaultConvergeWindows
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
	// CacheHits counts candidate energies served from the memoization
	// cache; CacheMisses counts full energy evaluations (with the cache
	// disabled every evaluated candidate is a miss).
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
	// from the controller-lifetime provision cache; ProvisionMisses counts
	// the full provisionings that filled it. Both stay zero with the cache
	// disabled.
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
	// previous slot instead of the cold InitTempFrac schedule.
	InitialTemp float64
	WarmStarted bool
	// EarlyExit reports that the search stopped because the best energy
	// converged (warm-started and tempered searches only).
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
// scratch, the delta snapshot, the cache arenas — lives as long as the Owan
// and is reused across slots; call Close when discarding a controller whose
// Workers > 1 searches have run, to stop the pool goroutines.
type Owan struct {
	cfg Config
	opt *optical.State
	al  *alloc.Allocator
	rng *rand.Rand
	// ev is the persistent evaluator, created lazily on the first
	// ComputeNetworkState call; provCache is the controller-lifetime
	// topology -> effective-links memo it consults (nil when disabled).
	ev        *evaluator
	provCache *provisionCache
	// disablePersist (tests) restores the pre-persistence behavior: a
	// throwaway evaluator per ComputeNetworkState and no provision cache.
	// The cross-slot differential harness runs both variants on equal seeds
	// to pin that persistence never changes a trajectory.
	disablePersist bool
	// onCacheHit, when set (tests), observes every energy-cache hit with
	// the candidate topology and the energy the cache returned. Only the
	// classic (materialized) path invokes it; delta-mode cache activity is
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
	// pool; anything that escapes — the returned best state, any replica's
	// current state — never does. Bounded by the largest batch in flight
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
	// slotSeq counts ComputeNetworkState invocations; tempering derives its
	// per-replica and exchange RNG streams from (Seed, slotSeq, rung) so
	// consecutive slots explore independently yet reproducibly.
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
		cfg:       cfg,
		opt:       opt,
		al:        alloc.NewAllocator(),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		provCache: newProvisionCache(cfg.ProvisionCacheSize),
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
// piece of provisioning-derived persistent state is invalidated: the
// provision cache is cleared and the evaluator (whose retained snapshot and
// worker clones embed the old weights) is dropped and lazily rebuilt.
func (o *Owan) SetUnitRegenWeights(on bool) {
	o.opt.SetUnitRegenWeights(on)
	if o.ev != nil {
		o.ev.close()
		o.ev = nil
	}
	if o.provCache != nil {
		o.provCache.clear()
	}
	// The recorded warm energy was measured under the old weights; a
	// warm-started schedule seeded from it would under-explore.
	o.warmValid = false
}

// WithoutFiber returns a new controller core whose physical network lacks
// the given fiber (failure handling, §3.4). The annealing seed is carried
// over; topology state lives with the caller, so warm starts persist.
//
// The provision cache is migrated rather than dropped: an entry survives
// when its provisioning run stayed on the direct-segment fast path and
// every link of its topology routes identically on the reduced network —
// audited against the primary routes alone (optical.SameDirectRouting) for
// primary-only runs, or against the primary plus the full alternate table
// (optical.SameSegmentRouting) for runs that also drew on alternates —
// conditions under which re-provisioning provably reproduces the cached
// effective links. On a typical single-fiber failure most site pairs keep
// their routes, so the failure-response search starts with a warm cache
// instead of re-provisioning every candidate it has already seen.
func (o *Owan) WithoutFiber(fiberID int) *Owan {
	opt := o.opt.WithoutFiber(fiberID)
	if opt.Network() == o.cfg.Net {
		return o
	}
	cfg := o.cfg
	cfg.Net = opt.Network()
	nw := newOn(cfg, opt)
	if nw.provCache != nil && o.provCache != nil {
		var links []topology.Link
		nw.provCache.migrateFrom(o.provCache, func(key []byte, n int, direct bool) bool {
			var kn int
			var ok bool
			kn, links, ok = topology.DecodeKey(key, links[:0])
			if !ok || kn != n || n != cfg.Net.NumSites() {
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
// tempering replica can run its own reproducible chain. The single-chain
// search passes o.rng and is draw-for-draw the pre-tempering generator.
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
// their energies (concurrently when Config.Workers > 1, with memoization
// when Config.EnergyCacheSize > 0), and then reduces the batch in fixed
// generation order with the standard Metropolis acceptance rule. Candidate
// generation and acceptance share the single seeded RNG on this goroutine,
// so for a given (Seed, BatchSize) the result is bit-identical regardless
// of Workers or GOMAXPROCS. With BatchSize 1 the chain is exactly the
// classic serial annealing loop.
func (o *Owan) ComputeNetworkState(current *topology.LinkSet, active []*transfer.Transfer, slot int, slotSeconds float64) *NetworkState {
	start := time.Now()
	o.slotSeq++
	demands := o.demands(active, slot, slotSeconds)

	// The evaluator is controller-lifetime state: created once, then re-armed
	// per slot by begin(). Its worker pool, per-worker optical and allocator
	// scratch, delta snapshot and cache arenas all carry over, so a
	// warm-started slot skips the snapshot rebuild and its first energy is
	// usually a provision-cache hit.
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
	eCur := ev.energyFull(&ev.ctx0, sCur)
	stats := SearchStats{InitialEnergy: eCur, Replicas: o.cfg.Replicas}

	coldT0 := eCur * o.cfg.InitTempFrac
	if coldT0 <= 0 {
		// No throughput achievable from the current state (e.g. no demands
		// yet): fall back to a nominal temperature so the loop still
		// explores a little when demands exist.
		coldT0 = 1
	}
	// The stop temperature stays anchored to the cold schedule even when
	// warm-starting: a warm schedule begins lower and therefore runs
	// genuinely fewer cooling steps to the same ε.
	epsilon := o.cfg.EpsilonFrac * coldT0
	T, warmStarted := o.warmStartTemp(eCur, coldT0)
	stats.InitialTemp = T
	stats.WarmStarted = warmStarted
	deadline := time.Time{}
	if o.cfg.TimeBudget > 0 {
		deadline = start.Add(o.cfg.TimeBudget)
	}

	var sBest *topology.LinkSet
	var eBest, finalT float64
	if o.cfg.Replicas > 1 {
		sBest, eBest, finalT = o.temperedAnneal(ev, current, sCur, eCur, T, coldT0, epsilon, deadline, &stats)
	} else {
		sBest, eBest, finalT = o.classicAnneal(ev, current, sCur, eCur, T, coldT0, epsilon, deadline, &stats)
	}
	ev.finish(&stats)

	plan := o.opt.ProvisionTopology(sBest)
	eff := plan.Effective(sBest.N)
	if o.provCache != nil {
		// Seed the cross-slot cache with the returned topology's effective
		// links: the next slot warm-starts from sBest, so its first (and most
		// expensive) evaluation becomes a hit. plan.Effective is pinned
		// identical to ProvisionEffective, so the entry equals what the cold
		// path would have stored.
		key := sBest.AppendKey(ev.ctx0.keyBuf[:0])
		ev.ctx0.keyBuf = key
		ev.ctx0.eff = eff.AppendLinks(ev.ctx0.eff[:0])
		o.provCache.put(topology.KeyHash(key), key, eff.N, ev.ctx0.eff, o.opt.DirectOnly(), o.opt.SegmentOnly())
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
// a demand shock re-runs most of the schedule — floored at WarmTempFloor
// (so zero-drift slots still explore), never below the temperature the
// previous schedule ended at, and capped at coldT0.
func (o *Owan) warmStartTemp(eCur, coldT0 float64) (float64, bool) {
	if !o.cfg.WarmStart || !o.warmValid || coldT0 <= 0 {
		return coldT0, false
	}
	drift := math.Abs(eCur-o.warmE) / math.Max(math.Abs(o.warmE), 1e-9)
	frac := math.Min(1, math.Max(o.cfg.WarmTempFloor, drift))
	T := math.Max(coldT0*frac, o.warmT)
	if T > coldT0 {
		T = coldT0
	}
	return T, true
}

// classicAnneal is the single-chain annealing loop (Algorithm 1), batched
// over the evaluator. It starts from (sCur, eCur) at temperature T and
// returns the best state found, its energy, and the final temperature.
// Candidate generation and acceptance share o.rng on this goroutine, so the
// trajectory is the documented pure function of (Seed, BatchSize). On slots
// that warm-started, the loop additionally checks convergence every
// ExchangeInterval batches and stops early once the best energy stalls for
// ConvergeWindows consecutive windows.
func (o *Owan) classicAnneal(ev *evaluator, current, sCur *topology.LinkSet, eCur, T, T0, epsilon float64, deadline time.Time, stats *SearchStats) (*topology.LinkSet, float64, float64) {
	sBest, eBest := sCur, eCur
	useDelta := o.cfg.DeltaEval
	cands := make([]*topology.LinkSet, 0, o.cfg.BatchSize)
	needEval := make([]bool, 0, o.cfg.BatchSize)
	var energies []float64
	// Delta-mode candidate state: candidates exist as move lists until
	// accepted (movesBuf reuses per-slot buffers across batches; mats holds
	// this batch's lazily materialized topologies). linksCur/totalCur/
	// churnCur cache the enumeration, circuit count and churn of sCur, and
	// baseSeq counts sCur replacements so the evaluator knows when to
	// rebuild its snapshot (pointer identity is unreliable once old bases
	// are garbage).
	var (
		movesBuf [][]swapMove
		mats     []*topology.LinkSet
		linksCur []topology.Link
		curValid bool
		totalCur int
		churnCur int
		baseSeq  int
	)
	if useDelta {
		movesBuf = make([][]swapMove, o.cfg.BatchSize)
		mats = make([]*topology.LinkSet, o.cfg.BatchSize)
	}
	// Early-exit convergence windows, only on slots that actually
	// warm-started: a cold slot (including every first slot, and every slot
	// with WarmStart off) runs draw-for-draw the pre-tempering schedule.
	earlyExit := stats.WarmStarted && o.cfg.ConvergeWindows > 0
	batches, streak := 0, 0
	windowBest := eBest
	stop := false
	for !stop && stats.Iterations < o.cfg.MaxIterations {
		if T <= epsilon {
			if deadline.IsZero() {
				break
			}
			// With a wall-clock budget, a quenched schedule reheats and
			// keeps searching from the current state until time runs out
			// (longer budgets monotonically improve the best state found,
			// the behaviour Figure 10d measures).
			T = T0
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}

		// Generate the batch. Every candidate derives from the same sCur;
		// candidates outside the churn trust region around the slot's
		// starting topology are rejected without an energy evaluation (the
		// move would not be deployable as an incremental update) but still
		// consume an iteration and a cooling step, exactly like the serial
		// chain. In delta mode a candidate is its move list and the churn
		// bound is applied incrementally over the touched pairs; both paths
		// draw from the RNG identically, so the trajectories coincide.
		k := o.cfg.BatchSize
		if rem := o.cfg.MaxIterations - stats.Iterations; k > rem {
			k = rem
		}
		nCand := 0
		cands = cands[:0]
		needEval = needEval[:0]
		if useDelta {
			if !curValid {
				linksCur = sCur.AppendLinks(linksCur[:0])
				totalCur = sCur.TotalCircuits()
				if o.cfg.MaxChurn > 0 {
					churnCur = current.Diff(sCur)
				}
				curValid = true
			}
			for nCand < k {
				mv, ok := o.neighborMoves(sCur, linksCur, totalCur, movesBuf[nCand][:0])
				movesBuf[nCand] = mv
				if !ok {
					stop = true
					break
				}
				ne := true
				if o.cfg.MaxChurn > 0 {
					churnN := churnCur
					o.nbAcc = accumMoves(mv, o.nbAcc[:0])
					for _, pd := range o.nbAcc {
						cur := current.Get(pd.u, pd.v)
						b := sCur.Get(pd.u, pd.v)
						churnN += abs(cur-b-pd.d) - abs(cur-b)
					}
					ne = churnN <= o.cfg.MaxChurn
				}
				needEval = append(needEval, ne)
				nCand++
			}
			if nCand == 0 {
				break
			}
			energies = ev.energiesDelta(sCur, linksCur, baseSeq, movesBuf[:nCand], needEval, energies)
		} else {
			for len(cands) < k {
				sN := o.ComputeNeighbor(sCur)
				if sN == nil {
					stop = true
					break
				}
				cands = append(cands, sN)
				needEval = append(needEval, !(o.cfg.MaxChurn > 0 && current.Diff(sN) > o.cfg.MaxChurn))
			}
			if len(cands) == 0 {
				break
			}
			energies = ev.energies(cands, needEval, energies)
		}

		// Deterministic reduction: walk the batch in generation order,
		// applying acceptance against the evolving current state. An
		// accepted candidate replaces sCur for the rest of the batch even
		// though later candidates were generated from the older state —
		// they are complete topologies, so adopting them stays valid.
		// Delta-mode candidates materialize here, only when they become the
		// best or the current state (best and accept share the clone).
		batchBase := sCur
		for i := range needEval {
			stats.Iterations++
			if !needEval[i] {
				T *= o.cfg.Alpha
				continue
			}
			eN := energies[i]
			var sN *topology.LinkSet
			if !useDelta {
				sN = cands[i]
			}
			if eN > eBest {
				if useDelta {
					if mats[i] == nil {
						mats[i] = materializeMoves(batchBase, movesBuf[i])
					}
					sN = mats[i]
				}
				sBest, eBest = sN, eN
			}
			if accept(eCur, eN, T, o.rng) {
				if useDelta && sN == nil {
					if mats[i] == nil {
						mats[i] = materializeMoves(batchBase, movesBuf[i])
					}
					sN = mats[i]
				}
				sCur, eCur = sN, eN
				stats.Accepted++
				if useDelta {
					curValid = false
					baseSeq++
				}
			}
			T *= o.cfg.Alpha
			if T <= epsilon {
				if deadline.IsZero() {
					stop = true
					break
				}
				T = T0
			}
		}
		for i := 0; i < nCand; i++ {
			mats[i] = nil
		}
		if !useDelta {
			// Recycle the batch: every candidate the reduction did not
			// retain as the current or best state is dead.
			for _, c := range cands {
				if c != sCur && c != sBest {
					o.putLinkSet(c)
				}
			}
		}
		batches++
		if earlyExit && batches%o.cfg.ExchangeInterval == 0 {
			if eBest-windowBest <= o.cfg.EpsilonFrac*math.Max(math.Abs(eBest), 1e-9) {
				streak++
				if streak >= o.cfg.ConvergeWindows {
					stats.EarlyExit = true
					stop = true
				}
			} else {
				streak = 0
			}
			windowBest = eBest
		}
	}
	return sBest, eBest, T
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
