//go:build !race

package core

import (
	"testing"

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
func TestMemoizedCacheNoRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two measured benchmarks")
	}
	net, ts := memoWorkload(t)
	// One controller per variant, driven across slots the way a scheduler
	// does: the memo retains its arena between slots, so steady-state slots
	// must not pay any memo allocation at all. The warm-up slot absorbs the
	// one-time arena setup. Both variants consume identical RNG streams (the
	// memo never changes the trajectory), so their per-slot work is
	// comparable.
	measure := func(noMemo bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			o := New(Config{
				Net: net, Policy: transfer.SJF, Seed: 11,
				MaxIterations: 400, MaxChurn: -1,
			})
			defer o.Close()
			if noMemo {
				disablePersistence(o)
			}
			start := topology.InitialTopology(net)
			o.ComputeNetworkState(start, ts, 0, 300)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.ComputeNetworkState(start, ts, 0, 300)
			}
		})
	}
	off := measure(true)
	on := measure(false)
	if off.N == 0 || on.N == 0 {
		t.Fatal("benchmark did not run")
	}
	// Allow a handful of allocs of slack: one-time growth (map buckets,
	// arena refills) amortizes over an adaptively chosen b.N, so the
	// per-op figure jitters by a few. The regression this guards was +38%.
	const allocSlack = 16
	if on.AllocsPerOp() > off.AllocsPerOp()+allocSlack {
		t.Errorf("memo allocates more than the no-memo reference: %d > %d+%d allocs/op",
			on.AllocsPerOp(), off.AllocsPerOp(), allocSlack)
	}
	// Time is noisy in CI; only catch gross regressions.
	if float64(on.NsPerOp()) > 1.3*float64(off.NsPerOp()) {
		t.Errorf("memo is >30%% slower than the no-memo reference: %v vs %v ns/op",
			on.NsPerOp(), off.NsPerOp())
	}
	t.Logf("no memo: %v ns/op %d allocs/op; memo: %v ns/op %d allocs/op",
		off.NsPerOp(), off.AllocsPerOp(), on.NsPerOp(), on.AllocsPerOp())
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
