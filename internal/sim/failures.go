package sim

import "owan/internal/update"

// FailureAware is implemented by schedulers that react to physical-layer
// failures (§3.4: "the controller removes these links and switches from
// the physical network, and recomputes the network state").
type FailureAware interface {
	OnFiberFailure(fiberID int)
}

// OnFiberFailure rebuilds the Owan core on a copy of the network without
// the failed fiber. The warm-started annealing then reconverges with
// incremental updates, exactly as the paper argues.
func (s *OwanScheduler) OnFiberFailure(fiberID int) {
	old := s.O
	s.O = s.O.WithoutFiber(fiberID)
	if s.O != old {
		old.Close() // the replaced controller's evaluator pool is done
	}
}

// OnFiberFailure for the greedy baseline mirrors OwanScheduler.
func (s *GreedyScheduler) OnFiberFailure(fiberID int) {
	old := s.O
	s.O = s.O.WithoutFiber(fiberID)
	if s.O != old {
		old.Close()
	}
}

// injectFailures delivers the fiber failures configured for a slot to a
// failure-aware scheduler and then to the update planner, whose optical layer
// must re-derive fiber routes on what survives, and returns how many the
// scheduler was given. When both started on the same network the cut is
// repaired once: optical.State.WithoutFiber keeps the reduced network with
// its parent, so the planner lands on the copy, and the route tables, the
// scheduler's core repaired.
func injectFailures(cfg *Config, slot int, planner *update.Planner) int {
	ids := cfg.FiberFailures[slot]
	if len(ids) == 0 {
		return 0
	}
	delivered := 0
	if fa, ok := cfg.Scheduler.(FailureAware); ok {
		for _, id := range ids {
			fa.OnFiberFailure(id)
		}
		delivered = len(ids)
	}
	if planner != nil {
		for _, id := range ids {
			planner.OnFiberFailure(id)
		}
	}
	return delivered
}
