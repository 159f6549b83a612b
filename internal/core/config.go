package core

import (
	"fmt"

	"owan/internal/topology"
	"owan/internal/transfer"
)

// DefaultConfig returns a fully populated Config with the paper's default
// knobs for a network. Entry points start from this instead of hand-rolling
// defaults. Zero-valued fields in a hand-built Config resolve to the same
// values via withDefaults, except Seed, which DefaultConfig sets to 1, and
// StarveSlots: DefaultConfig sets DefaultStarveSlots, while a hand-built
// zero leaves starvation promotion off.
func DefaultConfig(net *topology.Network) Config {
	return Config{
		Net:           net,
		Policy:        transfer.SJF,
		StarveSlots:   DefaultStarveSlots,
		Alpha:         DefaultAlpha,
		MaxIterations: DefaultMaxIter,
		NeighborMoves: 1,
		MaxChurn:      DefaultMaxChurn,
		// Workers and BatchSize stay 0 ("resolve at New"): BatchSize
		// follows Workers by contract, and pinning either here would
		// change the search trajectory for callers that only set Workers.
		Replicas: 1,
		Seed:     1,
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
	// MaxChurn may be negative by contract: negative disables the churn
	// bound (zero means "default", since defaults never weaken the paper's
	// schedule).
	return nil
}
