package metrics

import "math"

// SearchEfficiency summarizes the annealing engine's evaluation counters:
// how much of the work the topology memo absorbed and how evenly the
// energy evaluations spread over the worker pool. internal/core reports the
// raw counters in its SearchStats; this helper turns them into the ratios
// the controller logs and the bench harness aggregates.
type SearchEfficiency struct {
	// Evaluations is the number of full energy computations (memo misses).
	Evaluations int
	// HitRate is memo hits over all energy lookups, in [0,1]; 0 when
	// nothing was looked up.
	HitRate float64
	// WorkerBalance is mean/max evaluations across workers, in (0,1]:
	// 1 means a perfectly even pool, values near 1/N mean one worker did
	// everything. 0 when nothing was evaluated.
	WorkerBalance float64
}

// ComputeSearchEfficiency derives the ratios from raw counters. workerEvals
// holds per-worker evaluation counts (one slot for a serial run).
func ComputeSearchEfficiency(cacheHits, cacheMisses int, workerEvals []int) SearchEfficiency {
	eff := SearchEfficiency{Evaluations: cacheMisses}
	if total := cacheHits + cacheMisses; total > 0 {
		eff.HitRate = float64(cacheHits) / float64(total)
	}
	sum, max := 0, 0
	for _, e := range workerEvals {
		sum += e
		if e > max {
			max = e
		}
	}
	if max > 0 {
		mean := float64(sum) / float64(len(workerEvals))
		eff.WorkerBalance = mean / float64(max)
	}
	return eff
}

// TemperingEfficiency summarizes a replica-exchange search: how often the
// proposed neighbor-rung exchanges were accepted and how much of the
// iteration budget the early exit saved.
type TemperingEfficiency struct {
	// ExchangeRate is accepted exchanges over attempts, in [0,1]; 0 when no
	// exchange was attempted (single-chain searches). Healthy ladders sit
	// well away from both ends: near 0 the rungs are too far apart to
	// communicate, near 1 they are so close the ladder adds nothing.
	ExchangeRate float64
	// BudgetUsed is the fraction of the per-replica iteration budget the
	// search actually ran, in [0,1]; below 1 only when the search stopped
	// before its iteration cap (converged, or rung 0 cooled to ε first).
	BudgetUsed float64
}

// ComputeTemperingEfficiency derives the ratios from SearchStats counters:
// exchange attempts/accepts, total iterations summed over all replicas, and
// the configured per-replica cap.
func ComputeTemperingEfficiency(attempts, exchanges, iterations, replicas, maxIterations int) TemperingEfficiency {
	var eff TemperingEfficiency
	if attempts > 0 {
		eff.ExchangeRate = float64(exchanges) / float64(attempts)
	}
	if budget := replicas * maxIterations; budget > 0 {
		eff.BudgetUsed = math.Min(1, float64(iterations)/float64(budget))
	}
	return eff
}
