// Package alloc implements the greedy multi-path routing and rate
// assignment of Owan's energy function (Algorithm 3, lines 15–25): order
// transfers by a scheduling policy, then let transfers claim paths in
// increasing path-length tiers, assigning each path the minimum of the
// transfer's unmet demand and the bottleneck residual capacity.
//
// The same routine serves three callers: the simulated-annealing energy
// function in internal/core, the "+routing" ablation baseline, and the
// controller's final allocation pass on the chosen topology.
//
// Two implementations exist: the flat, zero-allocation Allocator (the hot
// path; see allocator.go) behind the exported entry points below, and the
// original map-based routine kept as the reference in reference_test.go,
// which only the differential tests compile.
package alloc

import (
	"owan/internal/topology"
	"owan/internal/transfer"
)

// Demand is one transfer's allocation input for a slot.
type Demand struct {
	ID       int
	Src, Dst int
	// RateGbps is the maximum useful rate this slot (remaining bits over
	// slot seconds, typically).
	RateGbps float64
}

// Result is the outcome of a greedy assignment.
type Result struct {
	// Alloc maps demand ID to its path allocations.
	Alloc map[int][]transfer.PathRate
	// Throughput is the total allocated rate in Gbps (the SA energy).
	Throughput float64
}

// Greedy assigns paths and rates to the demands, which must already be in
// scheduling-policy order (the caller applies transfer.Order). Transfers
// are served in increasing path-length tiers: every demand gets a chance at
// length-l paths before any demand uses length l+1 (Algorithm 3's outer
// loop over l). Within a tier, demands claim bottleneck capacity greedily
// in order.
//
// Greedy constructs a throwaway Allocator; hot-path callers (the annealing
// energy function) should hold a reusable Allocator instead.
func Greedy(ls *topology.LinkSet, theta float64, demands []Demand) *Result {
	return NewAllocator().Greedy(ls, theta, demands)
}

// Throughput evaluates Greedy and returns only the total throughput; used
// as the annealing energy where the allocation itself is discarded.
func Throughput(ls *topology.LinkSet, theta float64, demands []Demand) float64 {
	return NewAllocator().Throughput(ls, theta, demands)
}

// GreedySequential is the ablation variant of Greedy without the
// path-length tier loop: each demand, in order, claims shortest residual
// paths until its demand is met before the next demand gets any capacity.
// Earlier demands can therefore lock later ones out of their direct paths
// (compare TestGreedyLengthTiersProtectDirectPaths).
func GreedySequential(ls *topology.LinkSet, theta float64, demands []Demand) *Result {
	return NewAllocator().GreedySequential(ls, theta, demands)
}

// DemandsFromTransfers builds per-slot demands from live transfers: the
// useful rate is remaining gigabits spread over one slot.
func DemandsFromTransfers(ts []*transfer.Transfer, slotSeconds float64) []Demand {
	out := make([]Demand, 0, len(ts))
	for _, t := range ts {
		out = append(out, Demand{
			ID:       t.ID,
			Src:      t.Src,
			Dst:      t.Dst,
			RateGbps: t.Remaining / slotSeconds,
		})
	}
	return out
}
