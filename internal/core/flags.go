package core

import "flag"

// SearchFlags declares the search knobs a command line may set (-workers,
// -batch, -delta, -replicas and -warmstart) on fs, and returns a function
// that copies their parsed values into a Config. Every cmd/ main that runs
// the search declares them here, so a knob is added or deleted in core
// alone.
func SearchFlags(fs *flag.FlagSet) func(*Config) {
	workers := fs.Int("workers", 0, "annealing energy-evaluation goroutines (0 = serial; results identical for a seed at any value once -batch is pinned)")
	batch := fs.Int("batch", 0, "annealing candidate batch per temperature step (0 = workers; pin it when comparing -workers values — batch is part of the search semantics)")
	delta := fs.Bool("delta", false, "incremental candidate evaluation (core.Config.DeltaEval); results identical for a seed either way")
	replicas := fs.Int("replicas", 0, "parallel-tempering replica count (0 or 1 = single chain; part of the search semantics)")
	warm := fs.Bool("warmstart", false, "seed each slot's cooling schedule from the previous slot (shorter schedules on low-drift slots)")
	return func(c *Config) {
		c.Workers = *workers
		c.BatchSize = *batch
		c.DeltaEval = *delta
		c.Replicas = *replicas
		c.WarmStart = *warm
	}
}
