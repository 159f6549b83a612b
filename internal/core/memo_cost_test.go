//go:build !race

package core

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"owan/internal/metrics"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/workload"
)

// memoWorkload is the memoization-friendly workload: an 800 TB demand set on
// Internet2, whose swap moves frequently revisit states while cooling.
func memoWorkload(tb testing.TB) (*topology.Network, []*transfer.Transfer) {
	net := topology.Internet2(8)
	reqs, err := workload.Generate(workload.Config{
		Sites:            net.NumSites(),
		MeanSizeGbits:    2 * workload.TB,
		TotalDemandGbits: 800 * workload.TB,
		Load:             1,
		DurationSlots:    1,
		Seed:             7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var ts []*transfer.Transfer
	for _, r := range reqs {
		ts = append(ts, transfer.NewTransfer(r))
	}
	return net, ts
}

// TestMemoizedCacheNoRegression guards the memo against a cost regression
// the energy cache once had (cache-on allocating ~38% more than cache-off
// from per-put key copies): on the memoization-friendly workload the search
// with its memo must not allocate more than the no-memo reference, and must
// not be meaningfully slower. This file stays out of race builds: under the
// race detector a wall-clock comparison measures the instrumentation, not the
// memo.
//
// The two variants run interleaved, each run a fixed number of slots, and
// the verdict compares their medians: host drift (another process starting
// or stopping beside the test) then lands on both sides of most pairs
// instead of on whichever variant happened to run second.
func TestMemoizedCacheNoRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs interleaved timed searches")
	}
	const (
		pairs = 7  // interleaved memo-off/memo-on runs
		slots = 20 // ComputeNetworkState calls per run
	)
	net, ts := memoWorkload(t)
	start := topology.InitialTopology(net)
	// One controller per variant, driven across slots the way a scheduler
	// does: the memo retains its arena between slots, so steady-state slots
	// must not pay any memo allocation at all. The warm-up slot absorbs the
	// one-time arena setup. Both variants consume identical RNG streams (the
	// memo never changes the trajectory), so their per-slot work is
	// comparable.
	type variant struct {
		o          *Owan
		ns, allocs []float64 // per slot, one entry per run
	}
	newVariant := func(noMemo bool) *variant {
		o := New(Config{
			Net: net, Policy: transfer.SJF, Seed: 11,
			MaxIterations: 400, MaxChurn: -1,
		})
		t.Cleanup(o.Close)
		if noMemo {
			disablePersistence(o)
		}
		o.ComputeNetworkState(start, ts, 0, 300)
		return &variant{o: o}
	}
	off, on := newVariant(true), newVariant(false)
	run := func(v *variant) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < slots; i++ {
			v.o.ComputeNetworkState(start, ts, 0, 300)
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&after)
		v.ns = append(v.ns, float64(elapsed.Nanoseconds())/slots)
		v.allocs = append(v.allocs, float64(after.Mallocs-before.Mallocs)/slots)
	}
	// Alternate which variant goes first, so a steady drift favours neither.
	for p := 0; p < pairs; p++ {
		if p%2 == 0 {
			run(off)
			run(on)
		} else {
			run(on)
			run(off)
		}
	}
	offNs, onNs := median(off.ns), median(on.ns)
	offAllocs, onAllocs := median(off.allocs), median(on.allocs)
	// Allow a handful of allocs of slack: one-time growth (map buckets,
	// arena refills) lands in whichever run crosses it, so the per-slot
	// figure jitters by a few. The regression this guards was +38%.
	const allocSlack = 16
	if onAllocs > offAllocs+allocSlack {
		t.Errorf("memo allocates more than the no-memo reference: %.0f > %.0f+%d allocs/op",
			onAllocs, offAllocs, allocSlack)
	}
	// Time is noisy in CI; only catch gross regressions.
	if onNs > 1.3*offNs {
		t.Errorf("memo is >30%% slower than the no-memo reference: median %.0f vs %.0f ns/op",
			onNs, offNs)
	}
	t.Logf("no memo: %.0f ns/op %.0f allocs/op; memo: %.0f ns/op %.0f allocs/op (medians of %d interleaved runs of %d slots)",
		offNs, offAllocs, onNs, onAllocs, pairs, slots)
}

// median returns the median of xs, which it sorts.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// BenchmarkAnnealMemoized shows what the memo buys on a small topology
// whose swap moves frequently revisit states while cooling.
func BenchmarkAnnealMemoized(b *testing.B) {
	net, ts := memoWorkload(b)
	for _, noMemo := range []bool{true, false} {
		name := "memo-on"
		if noMemo {
			name = "memo-off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Config{
				Net: net, Policy: transfer.SJF, Seed: 11,
				MaxIterations: 400, MaxChurn: -1,
			}
			b.ResetTimer()
			hits, misses := 0, 0
			for i := 0; i < b.N; i++ {
				o := New(cfg)
				if noMemo {
					disablePersistence(o)
				}
				st := o.ComputeNetworkState(topology.InitialTopology(net), ts, 0, 300)
				hits += st.Stats.CacheHits
				misses += st.Stats.CacheMisses
				o.Close()
			}
			b.ReportMetric(100*metrics.ComputeSearchEfficiency(hits, misses, nil).HitRate, "cache-hit-%")
		})
	}
}
