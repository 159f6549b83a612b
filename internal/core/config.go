package core

import (
	"fmt"

	"owan/internal/topology"
	"owan/internal/transfer"
)

// DefaultConfig returns a fully populated Config with the paper's default
// knobs for a network. Entry points start from this instead of hand-rolling
// defaults; zero-valued fields in a hand-built Config still resolve to the
// same values via withDefaults, so the two paths cannot drift.
func DefaultConfig(net *topology.Network) Config {
	return Config{
		Net:           net,
		Policy:        transfer.SJF,
		StarveSlots:   DefaultStarveSlots,
		Alpha:         DefaultAlpha,
		EpsilonFrac:   DefaultEpsilonFrac,
		MaxIterations: DefaultMaxIter,
		InitTempFrac:  DefaultInitTemp,
		NeighborMoves: 1,
		MaxChurn:      DefaultMaxChurn,
		// Workers and BatchSize stay 0 ("resolve at New"): BatchSize
		// follows Workers by contract, and pinning either here would
		// change the search trajectory for callers that only set Workers.
		Replicas:         1,
		ExchangeInterval: DefaultExchangeInterval,
		WarmTempFloor:    DefaultWarmTempFloor,
		ConvergeWindows:  DefaultConvergeWindows,
		Seed:             1,
	}
}

// Validate rejects nonsense knob combinations before they reach the
// search. Zero values mean "use the default" and pass; out-of-range
// values fail fast with a message naming the knob, so every entry point
// (controlplane, experiments, the cmd/ mains) reports bad flags the same
// way instead of silently misbehaving slots later.
func (c Config) Validate() error {
	if c.Net == nil {
		return fmt.Errorf("core: config: Net is required")
	}
	if c.Alpha != 0 && (c.Alpha <= 0 || c.Alpha >= 1) {
		return fmt.Errorf("core: config: Alpha must be in (0,1), got %v", c.Alpha)
	}
	if c.EpsilonFrac != 0 && (c.EpsilonFrac <= 0 || c.EpsilonFrac >= 1) {
		return fmt.Errorf("core: config: EpsilonFrac must be in (0,1), got %v", c.EpsilonFrac)
	}
	if c.InitTempFrac < 0 {
		return fmt.Errorf("core: config: InitTempFrac must be non-negative, got %v", c.InitTempFrac)
	}
	if c.StarveSlots < 0 {
		return fmt.Errorf("core: config: StarveSlots must be non-negative, got %d", c.StarveSlots)
	}
	if c.MaxIterations < 0 {
		return fmt.Errorf("core: config: MaxIterations must be non-negative, got %d", c.MaxIterations)
	}
	if c.NeighborMoves < 0 {
		return fmt.Errorf("core: config: NeighborMoves must be non-negative, got %d", c.NeighborMoves)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: config: Workers must be non-negative, got %d", c.Workers)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("core: config: BatchSize must be non-negative, got %d", c.BatchSize)
	}
	if c.Replicas < 0 {
		return fmt.Errorf("core: config: Replicas must be non-negative (0 = single chain), got %d", c.Replicas)
	}
	if c.ExchangeInterval < 0 {
		return fmt.Errorf("core: config: ExchangeInterval must be non-negative, got %d", c.ExchangeInterval)
	}
	if c.WarmTempFloor < 0 || c.WarmTempFloor > 1 {
		return fmt.Errorf("core: config: WarmTempFloor must be in [0,1], got %v", c.WarmTempFloor)
	}
	// MaxChurn and ConvergeWindows may be negative by contract: negative
	// disables the churn bound / the early-exit convergence check (each zero
	// value means "default", since defaults never weaken the paper's
	// schedule).
	return nil
}
