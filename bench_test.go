// Package owan's repository-level benchmarks regenerate every table and
// figure of the paper's evaluation (§5) at a reduced scale, reporting the
// headline shape metrics via b.ReportMetric so `go test -bench=.` doubles
// as a reproduction smoke test. cmd/owan-bench runs the same generators at
// full scale.
package owan

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"owan/internal/alloc"
	"owan/internal/core"
	"owan/internal/experiments"
	"owan/internal/figdata"
	"owan/internal/graph"
	"owan/internal/optical"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/workload"
)

// benchScale trims the quick scale further so a full -bench=. sweep stays
// in the minutes range.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.ISPSites = 15
	sc.InterDCSites = 12
	sc.HorizonSlots = 3
	sc.OwanIterations = 120
	sc.Seeds = 1
	return sc
}

// meanImprovement averages the "vs-*-avg" series of a Fig7-style figure.
func meanImprovement(f *figdata.Figure, suffix string) float64 {
	sum, n := 0.0, 0
	for _, name := range f.SeriesNames() {
		if len(name) < len(suffix) || name[len(name)-len(suffix):] != suffix {
			continue
		}
		for _, x := range f.Xs() {
			if y, ok := f.Get(name, x); ok && !math.IsInf(y, 1) && !math.IsNaN(y) {
				sum += y
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func benchFig7(b *testing.B, topo experiments.TopoKind) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig7(topo, sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanImprovement(figs[0], "-avg"), "x-improvement-avg")
		b.ReportMetric(meanImprovement(figs[0], "-p95"), "x-improvement-p95")
	}
}

func BenchmarkFig7Internet2(b *testing.B) { benchFig7(b, experiments.Internet2) }
func BenchmarkFig7ISP(b *testing.B)       { benchFig7(b, experiments.ISP) }
func BenchmarkFig7InterDC(b *testing.B)   { benchFig7(b, experiments.InterDC) }

func BenchmarkFig8Makespan(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		total, n := 0.0, 0
		for _, topo := range experiments.AllTopos {
			f, err := experiments.Fig8(topo, sc)
			if err != nil {
				b.Fatal(err)
			}
			for _, name := range f.SeriesNames() {
				for _, x := range f.Xs() {
					if y, ok := f.Get(name, x); ok && !math.IsInf(y, 1) {
						total += y
						n++
					}
				}
			}
		}
		b.ReportMetric(total/float64(n), "x-makespan-improvement")
	}
}

func benchFig9(b *testing.B, topo experiments.TopoKind) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig9(topo, sc)
		if err != nil {
			b.Fatal(err)
		}
		// Report Owan's and the best alternative's deadline-met percentage
		// averaged over the sigma sweep.
		owan, best := 0.0, 0.0
		n := 0.0
		for _, sigma := range experiments.DeadlineFactors {
			if y, ok := figs[0].Get("owan", sigma); ok {
				owan += y
				n++
			}
			alt := 0.0
			for _, name := range figs[0].SeriesNames() {
				if name == "owan" {
					continue
				}
				if y, ok := figs[0].Get(name, sigma); ok && y > alt {
					alt = y
				}
			}
			best += alt
		}
		b.ReportMetric(owan/n, "pct-owan-met")
		b.ReportMetric(best/n, "pct-best-baseline-met")
	}
}

func BenchmarkFig9Internet2(b *testing.B) { benchFig9(b, experiments.Internet2) }
func BenchmarkFig9ISP(b *testing.B)       { benchFig9(b, experiments.ISP) }
func BenchmarkFig9InterDC(b *testing.B)   { benchFig9(b, experiments.InterDC) }

func BenchmarkFig10aJointVsGreedy(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig10a(sc)
		if err != nil {
			b.Fatal(err)
		}
		// Average throughput ratio across the run.
		sumSA, sumGreedy := 0.0, 0.0
		for _, x := range f.Xs() {
			if y, ok := f.Get("simulated-annealing", x); ok {
				sumSA += y
			}
			if y, ok := f.Get("greedy", x); ok {
				sumGreedy += y
			}
		}
		if sumGreedy > 0 {
			b.ReportMetric(sumSA/sumGreedy, "x-joint-over-greedy")
		}
	}
}

func BenchmarkFig10bConsistentUpdate(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig10bAt(experiments.InterDC, sc)
		if err != nil {
			b.Fatal(err)
		}
		minOf := func(series string) float64 {
			m := math.Inf(1)
			for _, x := range f.Xs() {
				if y, ok := f.Get(series, x); ok && y < m {
					m = y
				}
			}
			return m
		}
		b.ReportMetric(minOf("consistent"), "gbps-min-consistent")
		b.ReportMetric(minOf("one-shot"), "gbps-min-oneshot")
	}
}

// BenchmarkSetup is the set-up a starting controller pays, timed over the
// interval the benchmark's setup_s measures: building the network
// (topology.ISP — its spanning tree and regenerator placement), core.New
// (nearly all of it the cold optical route tables) and the initial topology,
// at 40, 100 and 200 sites. build-frac and tables-frac are the shares of the
// first two in that interval.
func BenchmarkSetup(b *testing.B) {
	for _, sites := range []int{40, 100, 200} {
		b.Run("isp"+strconv.Itoa(sites), func(b *testing.B) {
			b.ReportAllocs()
			var build, tables, total time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				net := topology.ISP(sites, 10, 1)
				t1 := time.Now()
				cfg := core.DefaultConfig(net)
				cfg.Seed = 1
				o := core.New(cfg)
				t2 := time.Now()
				topology.InitialTopology(net)
				t3 := time.Now()
				build, tables, total = build+t1.Sub(t0), tables+t2.Sub(t1), total+t3.Sub(t0)
				o.Close()
			}
			b.ReportMetric(build.Seconds()/total.Seconds(), "build-frac")
			b.ReportMetric(tables.Seconds()/total.Seconds(), "tables-frac")
		})
	}
}

// BenchmarkRouteTables is the cold optical set-up a starting controller pays:
// the all-pairs k-shortest-path sweep behind optical.NewState, on a network
// whose tables have not been built (a fresh copy per op; the copy is outside
// the timer), at 40, 100 and 200 sites. The tables hold routes only for pairs
// whose primary route is within optical reach, so out-of-reach-frac — the
// share of ordered site pairs whose shortest fiber route is longer than
// ReachKm — says how much of the sweep is one Dijkstra tree and nothing more.
// retained-MB is the heap the tables hold once built, after a forced
// collection, before any FiberPathIDs call has built a path past reach.
func BenchmarkRouteTables(b *testing.B) {
	for _, sites := range []int{40, 100, 200} {
		base := topology.ISP(sites, 10, 1)
		b.Run("isp"+strconv.Itoa(sites), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net := *base
				b.StartTimer()
				optical.NewState(&net)
			}
			b.StopTimer()
			g, out := base.FiberGraph(), 0
			for u := 0; u < g.N(); u++ {
				for v, d := range g.ShortestDistances(u) {
					if v != u && d > base.ReachKm {
						out++
					}
				}
			}
			b.ReportMetric(float64(out)/float64(g.N()*(g.N()-1)), "out-of-reach-frac")
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := int64(ms.HeapAlloc)
			net := *base
			optical.NewState(&net) // the state is garbage; its tables stay with net
			runtime.GC()
			runtime.ReadMemStats(&ms)
			runtime.KeepAlive(&net)
			b.ReportMetric(float64(int64(ms.HeapAlloc)-before)/(1<<20), "retained-MB")
		})
	}
}

// BenchmarkRouteRepairISP100 is the optical share of a fiber-cut response at
// ISP100: State.WithoutFiber deriving the reduced network's route tables from
// the live ones. How much it recomputes is set by how many site pairs the
// repair index lists under the cut fiber, so it is measured at the fiber with
// the median count and at the one with the highest, among the cuts that leave
// the network connected (a bridge touches many pairs and leaves them nothing
// to route). The counts follow the index's rule: a pair whose primary is
// within the padded reach lists the fibers of its primary and of the
// alternates within that reach, and a pair past it lists none.
//
// WithoutFiber memoizes the reduced network on its parent, so a second cut
// of the same fiber on the same network is a lookup. Each op therefore cuts
// a fresh copy of the network, whose state and cold tables are built outside
// the timer: every timed op repairs.
func BenchmarkRouteRepairISP100(b *testing.B) {
	net := topology.ISP(100, 10, 1)
	g := net.FiberGraph()
	touch := map[int]int{} // fiber id -> ordered pairs whose indexed routes use it
	bound := net.ReachKm * (1 + graph.SelectSlack)
	var sc graph.Scratch
	var tree graph.Tree
	for u := 0; u < g.N(); u++ {
		g.ShortestTree(&tree, u)
		for v := 0; v < g.N(); v++ {
			if v == u || tree.Dist(v) > bound {
				continue
			}
			seen := map[int]bool{}
			for p := g.KShortestFrom(&sc, &tree, v, 3, bound) - 1; p >= 0; p-- {
				for _, e := range sc.PathEdges(p) {
					if !seen[e.ID] {
						seen[e.ID] = true
						touch[e.ID]++
					}
				}
			}
		}
	}
	ids := make([]int, 0, len(net.Fibers))
	for _, f := range net.Fibers {
		if rest, _ := net.WithoutFiber(f.ID); rest.FiberGraph().Connected() {
			ids = append(ids, f.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return touch[ids[i]] < touch[ids[j]] })
	for _, c := range []struct {
		name  string
		fiber int
	}{{"median-touch", ids[len(ids)/2]}, {"worst-touch", ids[len(ids)-1]}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := *net // a copy starts with no tables and no cut copies
				s := optical.NewState(&fresh)
				b.StartTimer()
				s.WithoutFiber(c.fiber)
			}
			b.ReportMetric(float64(touch[c.fiber])/float64(g.N()*(g.N()-1)), "touched-frac")
		})
	}
}

func BenchmarkFig10cBreakdown(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig10c(sc)
		if err != nil {
			b.Fatal(err)
		}
		// Report normalized completion time of each control level at load 1.
		if y, ok := f.Get("rate", 1); ok {
			b.ReportMetric(y, "norm-ct-rate")
		}
		if y, ok := f.Get("+rout.", 1); ok {
			b.ReportMetric(y, "norm-ct-routing")
		}
		if y, ok := f.Get("+topo.", 1); ok {
			b.ReportMetric(y, "norm-ct-topology")
		}
	}
}

func BenchmarkValidationEmuVsSim(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Validation(sc)
		if err != nil {
			b.Fatal(err)
		}
		if y, ok := f.Get("divergence-pct", 0); ok {
			b.ReportMetric(y, "pct-divergence")
		}
	}
}

func BenchmarkFailureRecovery(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f, err := experiments.FailureRecovery(sc)
		if err != nil {
			b.Fatal(err)
		}
		// Post-failure goodput ratio (owan / swan) averaged over the slots
		// after the cut.
		failT := float64(sc.HorizonSlots/2) * experiments.SlotSeconds
		var owan, swan float64
		for _, x := range f.Xs() {
			if x < failT {
				continue
			}
			if y, ok := f.Get("owan", x); ok {
				owan += y
			}
			if y, ok := f.Get("swan", x); ok {
				swan += y
			}
		}
		if swan > 0 {
			b.ReportMetric(owan/swan, "x-postfailure-goodput")
		}
	}
}

// --- Parallel annealing engine (ISSUE 1 tentpole) ---

// benchAnneal measures raw annealing throughput (iterations per second) on
// the full 40-site ISP topology. All variants share (Seed, BatchSize) so
// they walk the identical chain; only the evaluation machinery differs.
// MaxChurn is disabled so every iteration pays a full energy evaluation
// (churn-rejected moves are nearly free and would mask the speedup). delta
// sets DeltaEval: candidates are materialized only when accepted or best.
func benchAnneal(b *testing.B, workers int, delta bool) {
	net := topology.ISP(40, 10, 1)
	ts := ablationWorkload(b, net)
	cfg := core.Config{
		Net: net, Policy: transfer.SJF, Seed: 11,
		MaxIterations: 160, BatchSize: 8, Workers: workers, MaxChurn: -1,
		DeltaEval: delta,
	}
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		o := core.New(cfg)
		st := o.ComputeNetworkState(topology.InitialTopology(net), ts, 0, experiments.SlotSeconds)
		iters += st.Stats.Iterations
		o.Close()
	}
	b.ReportMetric(float64(iters)/b.Elapsed().Seconds(), "anneal-iters/s")
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

func BenchmarkAnnealSerial(b *testing.B) { benchAnneal(b, 1, false) }

// BenchmarkAnnealDelta is AnnealSerial with DeltaEval on: same chain, with
// candidates materialized only when accepted or best.
func BenchmarkAnnealDelta(b *testing.B) { benchAnneal(b, 1, true) }

// BenchmarkAnnealParallel is worker-pool evaluation with DeltaEval on:
// move-list candidates materialized only when accepted or best, every
// energy evaluated cold through the topology memo.
func BenchmarkAnnealParallel(b *testing.B) { benchAnneal(b, runtime.GOMAXPROCS(0), true) }

// BenchmarkAnnealParallelCold is AnnealParallel with DeltaEval off: every
// candidate materialized as it is drawn.
func BenchmarkAnnealParallelCold(b *testing.B) { benchAnneal(b, runtime.GOMAXPROCS(0), false) }

// BenchmarkAnnealISP100 runs the annealing search on a 100-site ISP — past
// the single-word bitset limit — with one long-lived controller reused
// across iterations, the way a scheduler drives consecutive slots. Warm
// iterations exercise the persistent evaluator: re-provisions of previously
// seen candidate topologies are answered by the memo's cross-slot effective
// links.
func BenchmarkAnnealISP100(b *testing.B) {
	net := topology.ISP(100, 10, 1)
	ts := ablationWorkload(b, net)
	cfg := core.Config{
		Net: net, Policy: transfer.SJF, Seed: 11,
		MaxIterations: 60, BatchSize: 8, Workers: runtime.GOMAXPROCS(0),
		MaxChurn: -1, DeltaEval: true,
	}
	o := core.New(cfg)
	defer o.Close()
	start := topology.InitialTopology(net)
	o.ComputeNetworkState(start, ts, 0, experiments.SlotSeconds) // warm the evaluator
	b.ResetTimer()
	iters, pHits, pMisses := 0, 0, 0
	for i := 0; i < b.N; i++ {
		st := o.ComputeNetworkState(start, ts, 0, experiments.SlotSeconds)
		iters += st.Stats.Iterations
		pHits += st.Stats.ProvisionHits
		pMisses += st.Stats.ProvisionMisses
	}
	b.ReportMetric(float64(iters)/b.Elapsed().Seconds(), "anneal-iters/s")
	if n := pHits + pMisses; n > 0 {
		b.ReportMetric(100*float64(pHits)/float64(n), "provision-hit-%")
	}
}

// BenchmarkAnnealISP200 is AnnealISP100 at the 200-site scale the frontier-
// compacted engines target (four 64-bit mask words): one long-lived
// controller, warm persistent evaluator, cross-slot topology memo. The
// iteration budget is halved against ISP100 so a full -bench sweep stays in
// the minutes range; anneal-iters/s is the comparable figure.
func BenchmarkAnnealISP200(b *testing.B) {
	net := topology.ISP(200, 10, 1)
	ts := ablationWorkload(b, net)
	cfg := core.Config{
		Net: net, Policy: transfer.SJF, Seed: 11,
		MaxIterations: 30, BatchSize: 8, Workers: runtime.GOMAXPROCS(0),
		MaxChurn: -1, DeltaEval: true,
	}
	o := core.New(cfg)
	defer o.Close()
	start := topology.InitialTopology(net)
	o.ComputeNetworkState(start, ts, 0, experiments.SlotSeconds) // warm the evaluator
	b.ResetTimer()
	iters, pHits, pMisses := 0, 0, 0
	for i := 0; i < b.N; i++ {
		st := o.ComputeNetworkState(start, ts, 0, experiments.SlotSeconds)
		iters += st.Stats.Iterations
		pHits += st.Stats.ProvisionHits
		pMisses += st.Stats.ProvisionMisses
	}
	b.ReportMetric(float64(iters)/b.Elapsed().Seconds(), "anneal-iters/s")
	if n := pHits + pMisses; n > 0 {
		b.ReportMetric(100*float64(pHits)/float64(n), "provision-hit-%")
	}
}

// --- Warm-start + replica exchange (ISSUE 6 tentpole) ---

// benchAnnealTempered measures the tempering engine on the 40-site ISP:
// one persistent controller driven across b.N slots, the way a scheduler
// does, so warm starts see the previous slot's accepted energy. Reports
// chain throughput plus the exchange/early-exit telemetry.
func benchAnnealTempered(b *testing.B, replicas int, warm bool) {
	net := topology.ISP(40, 10, 1)
	ts := ablationWorkload(b, net)
	cfg := core.Config{
		Net: net, Policy: transfer.SJF, Seed: 11,
		// Let the temperature schedule (and the early exit), not the
		// iteration cap, end each search: warm-started slots run genuinely
		// shorter schedules and that is the effect being measured.
		MaxIterations: 2000, BatchSize: 8, Workers: runtime.GOMAXPROCS(0),
		MaxChurn: -1, Replicas: replicas, WarmStart: warm,
	}
	o := core.New(cfg)
	defer o.Close()
	start := topology.InitialTopology(net)
	o.ComputeNetworkState(start, ts, 0, experiments.SlotSeconds) // warm the evaluator
	b.ResetTimer()
	iters, attempts, exchanges, early := 0, 0, 0, 0
	energy := 0.0
	for i := 0; i < b.N; i++ {
		st := o.ComputeNetworkState(start, ts, i+1, experiments.SlotSeconds)
		iters += st.Stats.Iterations
		attempts += st.Stats.ExchangeAttempts
		exchanges += st.Stats.Exchanges
		if st.Stats.EarlyExit {
			early++
		}
		energy = st.Stats.BestEnergy
	}
	b.ReportMetric(float64(iters)/b.Elapsed().Seconds(), "anneal-iters/s")
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	b.ReportMetric(energy, "gbps-energy")
	if attempts > 0 {
		b.ReportMetric(100*float64(exchanges)/float64(attempts), "exchange-%")
	}
	b.ReportMetric(100*float64(early)/float64(b.N), "early-exit-%")
}

// BenchmarkAnnealTemperedR4 is the full tentpole configuration: a 4-rung
// ladder with warm-started schedules across slots.
func BenchmarkAnnealTemperedR4(b *testing.B) { benchAnnealTempered(b, 4, true) }

// BenchmarkAnnealTemperedR4Cold isolates the ladder from the warm start:
// every slot runs the full cold schedule on 4 rungs.
func BenchmarkAnnealTemperedR4Cold(b *testing.B) { benchAnnealTempered(b, 4, false) }

// BenchmarkAnnealTemperedWarmOnly isolates the warm start from the ladder:
// a single chain whose repeated-demand slots start low and early-exit.
func BenchmarkAnnealTemperedWarmOnly(b *testing.B) { benchAnnealTempered(b, 1, true) }

// --- Ablation benches (DESIGN.md §4) ---

// ablationWorkload builds a stable transfer set on the ISP topology.
func ablationWorkload(b *testing.B, net *topology.Network) []*transfer.Transfer {
	b.Helper()
	reqs, err := workload.Generate(workload.Config{
		Sites:            net.NumSites(),
		MeanSizeGbits:    2 * workload.TB,
		TotalDemandGbits: 800 * workload.TB,
		Load:             1,
		DurationSlots:    1,
		Seed:             7,
	})
	if err != nil {
		b.Fatal(err)
	}
	var ts []*transfer.Transfer
	for _, r := range reqs {
		ts = append(ts, transfer.NewTransfer(r))
	}
	return ts
}

// runSA runs one annealing search with the given config tweaks and returns
// the best energy.
func runSA(b *testing.B, tweak func(*core.Config), start func(*topology.Network) *topology.LinkSet) float64 {
	b.Helper()
	net := topology.ISP(15, 6, 3)
	cfg := core.Config{Net: net, Policy: transfer.SJF, MaxIterations: 150, Seed: 11}
	if tweak != nil {
		tweak(&cfg)
	}
	o := core.New(cfg)
	ts := ablationWorkload(b, net)
	st := o.ComputeNetworkState(start(net), ts, 0, experiments.SlotSeconds)
	return st.Stats.BestEnergy
}

func BenchmarkAblationWarmStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		warm := runSA(b, nil, topology.InitialTopology)
		cold := runSA(b, nil, func(n *topology.Network) *topology.LinkSet {
			return topology.RandomTopology(n, 5)
		})
		b.ReportMetric(warm, "gbps-warm")
		b.ReportMetric(cold, "gbps-cold")
	}
}

func BenchmarkAblationNeighborMove(b *testing.B) {
	for i := 0; i < b.N; i++ {
		single := runSA(b, nil, topology.InitialTopology)
		double := runSA(b, func(c *core.Config) { c.NeighborMoves = 2 }, topology.InitialTopology)
		b.ReportMetric(single, "gbps-4link-move")
		b.ReportMetric(double, "gbps-8link-move")
	}
}

func BenchmarkAblationPolicy(b *testing.B) {
	for _, p := range []transfer.Policy{transfer.SJF, transfer.EDF, transfer.FIFO, transfer.LJF} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			sc := benchScale()
			for i := 0; i < b.N; i++ {
				net, err := experiments.BuildTopology(experiments.Internet2, sc, 1)
				if err != nil {
					b.Fatal(err)
				}
				o := core.New(core.Config{Net: net, Policy: p, MaxIterations: sc.OwanIterations, Seed: 3})
				ts := ablationWorkload(b, net)
				st := o.ComputeNetworkState(topology.InitialTopology(net), ts, 0, experiments.SlotSeconds)
				b.ReportMetric(st.Stats.BestEnergy, "gbps-energy")
			}
		})
	}
}

func BenchmarkAblationRegenWeight(b *testing.B) {
	// Long-haul circuits on Internet2 exercise regenerator placement.
	for i := 0; i < b.N; i++ {
		run := func(unit bool) float64 {
			net := topology.Internet2(8)
			o := core.New(core.Config{Net: net, Policy: transfer.SJF, MaxIterations: 120, Seed: 9})
			o.SetUnitRegenWeights(unit)
			ts := ablationWorkload(b, net)
			st := o.ComputeNetworkState(topology.InitialTopology(net), ts, 0, experiments.SlotSeconds)
			return st.Stats.BestEnergy
		}
		b.ReportMetric(run(false), "gbps-balanced")
		b.ReportMetric(run(true), "gbps-unit")
	}
}

func BenchmarkAblationPathTiers(b *testing.B) {
	// Tiered (Algorithm 3) vs strictly sequential greedy assignment.
	net := topology.ISP(15, 6, 3)
	ts := ablationWorkload(b, net)
	ordered := append([]*transfer.Transfer(nil), ts...)
	transfer.Order(ordered, transfer.SJF, 0, 0)
	demands := alloc.DemandsFromTransfers(ordered, experiments.SlotSeconds)
	ls := topology.InitialTopology(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tiered := alloc.Greedy(ls, net.ThetaGbps, demands)
		seq := alloc.GreedySequential(ls, net.ThetaGbps, demands)
		b.ReportMetric(tiered.Throughput, "gbps-tiered")
		b.ReportMetric(seq.Throughput, "gbps-sequential")
	}
}

func BenchmarkAblationCooling(b *testing.B) {
	for _, alpha := range []float64{0.90, 0.95, 0.99} {
		alpha := alpha
		b.Run(figLabel(alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := runSA(b, func(c *core.Config) { c.Alpha = alpha; c.MaxIterations = 1 << 20 }, topology.InitialTopology)
				b.ReportMetric(e, "gbps-energy")
			}
		})
	}
}

func figLabel(alpha float64) string {
	switch alpha {
	case 0.90:
		return "alpha90"
	case 0.95:
		return "alpha95"
	default:
		return "alpha99"
	}
}
