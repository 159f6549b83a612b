// Package workload synthesizes bulk-transfer workloads following the
// recipe of the paper's evaluation (§5.1): per-site traffic-demand sums
// (standing in for the proprietary router-counter traces), transfers with
// exponentially distributed sizes generated over a fixed horizon against a
// load factor λ, optional deadlines drawn uniformly from [T, σT], and — for
// the inter-DC topology — traffic hotspots that move from site to site.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"owan/internal/transfer"
)

// Config controls workload synthesis.
type Config struct {
	Sites int
	// MeanSizeGbits is the mean of the exponential transfer-size
	// distribution (paper: 500 GB testbed, 5 TB simulations).
	MeanSizeGbits float64
	// TotalDemandGbits is the base sum of per-site traffic demand at load
	// factor 1 (the quantity the paper obtains from traces).
	TotalDemandGbits float64
	// Load is the traffic load factor λ multiplying every site's demand sum.
	Load float64
	// DurationSlots is the arrival horizon ("we generate transfers for two
	// hours"): arrivals are uniform over [0, DurationSlots).
	DurationSlots int
	// DeadlineFactor is σ: deadlines are drawn uniformly from [T, σT] after
	// arrival, measured in slots. Zero disables deadlines.
	DeadlineFactor float64
	// Hotspots enables the inter-DC moving-hotspot behaviour.
	Hotspots bool
	// HotspotSites, if set with Hotspots, restricts hotspots to the first
	// HotspotSites site ids (e.g. super cores); otherwise any site.
	HotspotSites int
	Seed         int64
}

// GB and TB express sizes in gigabits (1 GB = 8 Gbit).
const (
	GB = 8.0
	TB = 8000.0
)

// SiteWeights derives heavy-tailed per-site demand weights (normalized to
// sum 1) deterministically from the seed. A Zipf-like tail matches the
// skewed site populations of real backbones.
func SiteWeights(sites int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, sites)
	sum := 0.0
	for i := range w {
		// Zipf over a random permutation plus noise.
		w[i] = 1 / math.Pow(float64(i+1), 0.8) * (0.5 + rng.Float64())
	}
	rng.Shuffle(sites, func(i, j int) { w[i], w[j] = w[j], w[i] })
	for _, x := range w {
		sum += x
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Generate synthesizes the transfer requests for one run.
//
// Following §5.1: each site gets a demand budget (weight × total × λ);
// transfers are drawn with exponential sizes and assigned to a random
// (src, dst) pair whose budgets are not yet exceeded; arrivals are uniform
// over the horizon; deadlines (if enabled) are uniform in [T, σT] slots
// after arrival.
func Generate(cfg Config) ([]transfer.Request, error) {
	if cfg.Sites < 2 {
		return nil, fmt.Errorf("workload: need at least 2 sites, got %d", cfg.Sites)
	}
	if cfg.MeanSizeGbits <= 0 || cfg.TotalDemandGbits <= 0 || cfg.Load <= 0 {
		return nil, fmt.Errorf("workload: sizes, demand and load must be positive")
	}
	if cfg.DurationSlots <= 0 {
		return nil, fmt.Errorf("workload: nonpositive duration")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	weights := SiteWeights(cfg.Sites, cfg.Seed+1)
	budget := make([]float64, cfg.Sites)
	for i := range budget {
		budget[i] = weights[i] * cfg.TotalDemandGbits * cfg.Load
	}
	used := make([]float64, cfg.Sites)
	// Hotspot sites draw from an extra budget pool (half the base total)
	// so bursts stay bounded by the load factor instead of growing with
	// the number of attempts.
	hotBudget := cfg.TotalDemandGbits * cfg.Load / 2
	hotUsed := 0.0

	// Hotspot schedule: the horizon is split into phases; in each phase one
	// site generates a burst of extra transfers (its budget is temporarily
	// boosted). The hotspot moves at each phase boundary.
	type phase struct {
		site       int
		start, end int
	}
	var phases []phase
	if cfg.Hotspots {
		nPhases := 4
		span := (cfg.DurationSlots + nPhases - 1) / nPhases
		limit := cfg.Sites
		if cfg.HotspotSites > 0 && cfg.HotspotSites < limit {
			limit = cfg.HotspotSites
		}
		for p := 0; p < nPhases; p++ {
			phases = append(phases, phase{
				site:  rng.Intn(limit),
				start: p * span,
				end:   (p + 1) * span,
			})
		}
	}
	hotspotAt := func(slot int) int {
		for _, p := range phases {
			if slot >= p.start && slot < p.end {
				return p.site
			}
		}
		return -1
	}

	var reqs []transfer.Request
	id := 0
	// Draw transfers until both endpoints' budgets are exhausted; cap
	// attempts to guarantee termination when budgets are tiny.
	maxAttempts := 200 * cfg.Sites * cfg.Sites
	for attempt := 0; attempt < maxAttempts; attempt++ {
		size := rng.ExpFloat64() * cfg.MeanSizeGbits
		if size < cfg.MeanSizeGbits/100 {
			size = cfg.MeanSizeGbits / 100 // avoid degenerate zero-size transfers
		}
		arrival := rng.Intn(cfg.DurationSlots)
		src, dst := rng.Intn(cfg.Sites), rng.Intn(cfg.Sites)
		// Hotspot bias: with probability 1/2 during a hotspot phase, the
		// source is the hotspot site regardless of budget state.
		hs := hotspotAt(arrival)
		isHot := hs >= 0 && rng.Float64() < 0.5 && hotUsed+size <= hotBudget
		if isHot {
			src = hs
			for dst == src {
				dst = rng.Intn(cfg.Sites)
			}
		}
		if src == dst {
			continue
		}
		if isHot {
			hotUsed += size
		} else {
			if used[src]+size > budget[src] || used[dst]+size > budget[dst] {
				// Check global exhaustion: if no pair can accept the mean
				// size, stop early.
				if exhausted(used, budget, cfg.MeanSizeGbits/4) && (len(phases) == 0 || hotUsed >= hotBudget*0.9) {
					break
				}
				continue
			}
			used[src] += size
			used[dst] += size
		}
		r := transfer.Request{
			ID: id, Src: src, Dst: dst, SizeGbits: size, Arrival: arrival,
			Deadline: transfer.NoDeadline,
		}
		if cfg.DeadlineFactor > 0 {
			// Uniform in [T, σT] slots after arrival (T = one slot).
			d := 1 + rng.Float64()*(cfg.DeadlineFactor-1)
			r.Deadline = arrival + int(math.Ceil(d))
		}
		if err := r.Validate(); err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
		id++
	}
	return reqs, nil
}

func exhausted(used, budget []float64, probe float64) bool {
	free := 0
	for i := range used {
		if budget[i]-used[i] > probe {
			free++
			if free >= 2 {
				return false
			}
		}
	}
	return true
}
