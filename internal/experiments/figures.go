package experiments

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"owan/internal/core"
	"owan/internal/emu"
	"owan/internal/figdata"
	"owan/internal/metrics"
	"owan/internal/optical"
	"owan/internal/sim"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/update"
)

// Loads is the traffic-load sweep of Figures 7 and 8.
var Loads = []float64{0.5, 1.0, 1.5, 2.0}

// DeadlineFactors is the σ sweep of Figure 9.
var DeadlineFactors = []float64{5, 10, 20, 30, 40, 50}

// fig7Baselines are the deadline-unconstrained comparison approaches.
var fig7Baselines = []string{"maxflow", "maxminfract", "swan"}

// fig9Approaches are the deadline-constrained approaches (Owan first).
var fig9Approaches = []string{"owan", "maxflow", "maxminfract", "swan", "tempus", "amoeba"}

// runStats aggregates one (approach, load/σ, topo) cell over seeds.
type runStats struct {
	avgCT, p95CT    float64
	makespan        float64
	binAvgCT        map[metrics.Bin]float64
	cdf             []figdata.Series
	deadline        metrics.DeadlineStats
	binMetPct       map[metrics.Bin]float64
	completionTimes []float64
}

// cellSpec names one (approach, load, σ) simulation cell of a figure.
type cellSpec struct {
	approach    string
	load, sigma float64
}

// accumulate folds one seed's simulation result into a cell aggregate.
// n is the seed count; calling it once per seed in seed order reproduces
// the original serial collect loop float-for-float.
func (agg *runStats) accumulate(res *sim.Result, sigma, n float64) {
	ct := metrics.CompletionTimes(res.Transfers, SlotSeconds)
	agg.completionTimes = append(agg.completionTimes, ct...)
	agg.avgCT += metrics.Mean(ct) / n
	agg.p95CT += metrics.Percentile(ct, 95) / n
	if !math.IsInf(res.MakespanSeconds, 1) {
		agg.makespan += res.MakespanSeconds / n
	}
	bins := metrics.BinBySize(res.Transfers)
	for _, b := range []metrics.Bin{metrics.Small, metrics.Middle, metrics.Large} {
		agg.binAvgCT[b] += metrics.Mean(metrics.CompletionTimes(bins[b], SlotSeconds)) / n
		if sigma > 0 {
			agg.binMetPct[b] += metrics.Deadlines(bins[b], SlotSeconds).TransfersMetPct / n
		}
	}
	if sigma > 0 {
		d := metrics.Deadlines(res.Transfers, SlotSeconds)
		agg.deadline.TransfersMetPct += d.TransfersMetPct / n
		agg.deadline.BytesMetPct += d.BytesMetPct / n
	}
}

// collectCells runs every (cell × seed) simulation of a figure on a bounded
// worker pool (sc.FigWorkers goroutines; 0 or 1 = serial) and returns one
// aggregate per cell, in cell order. Runs are independent end-to-end
// simulations, and each cell is folded over its seeds in seed order after
// all runs finish, so the output is bit-identical for any worker count.
// On error, the first failing run in (cell, seed) order wins, so error
// reporting is deterministic too.
func collectCells(topo TopoKind, cells []cellSpec, sc Scale) ([]*runStats, error) {
	type job struct{ cell, seed int }
	jobs := make([]job, 0, len(cells)*sc.Seeds)
	for c := range cells {
		for s := 0; s < sc.Seeds; s++ {
			jobs = append(jobs, job{c, s})
		}
	}
	results := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	run := func(i int) {
		j := jobs[i]
		results[i], errs[i] = Run(RunSpec{
			Topo: topo, Approach: cells[j.cell].approach, Load: cells[j.cell].load,
			DeadlineFactor: cells[j.cell].sigma, Seed: int64(j.seed*997 + 13), Scale: sc,
		})
	}
	if workers := min(sc.FigWorkers, len(jobs)); workers > 1 {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					run(i)
				}
			}()
		}
		for i := range jobs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for i := range jobs {
			run(i)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]*runStats, len(cells))
	n := float64(sc.Seeds)
	for c := range cells {
		agg := &runStats{binAvgCT: map[metrics.Bin]float64{}, binMetPct: map[metrics.Bin]float64{}}
		for s := 0; s < sc.Seeds; s++ {
			agg.accumulate(results[c*sc.Seeds+s], cells[c].sigma, n)
		}
		out[c] = agg
	}
	return out, nil
}

// Fig7 reproduces Figure 7 for one topology: (a) factor of improvement on
// average and 95th-percentile completion time versus load, (b) per-size-bin
// improvement at load 1, and (c) the completion-time CDF at load 1.
func Fig7(topo TopoKind, sc Scale) ([]*figdata.Figure, error) {
	sub := string(topo)
	fa := figdata.NewFigure("fig7a-"+sub, "Improvement on completion time ("+sub+")", "load", "factor")
	fb := figdata.NewFigure("fig7b-"+sub, "Improvement by size bin at load 1 ("+sub+")", "bin", "factor")
	fc := figdata.NewFigure("fig7c-"+sub, "Completion time CDF at load 1 ("+sub+")", "seconds", "fraction")

	var cells []cellSpec
	for _, load := range Loads {
		cells = append(cells, cellSpec{"owan", load, 0})
		for _, base := range fig7Baselines {
			cells = append(cells, cellSpec{base, load, 0})
		}
	}
	stats, err := collectCells(topo, cells, sc)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, load := range Loads {
		owan := stats[k]
		k++
		for _, base := range fig7Baselines {
			st := stats[k]
			k++
			fa.Add("vs-"+base+"-avg", load, metrics.FactorOfImprovement(owan.avgCT, st.avgCT))
			fa.Add("vs-"+base+"-p95", load, metrics.FactorOfImprovement(owan.p95CT, st.p95CT))
			if load == 1 {
				for i, b := range []metrics.Bin{metrics.Small, metrics.Middle, metrics.Large} {
					fb.Add("vs-"+base, float64(i), metrics.FactorOfImprovement(owan.binAvgCT[b], st.binAvgCT[b]))
				}
				addCDF(fc, base, st.completionTimes)
			}
		}
		if load == 1 {
			addCDF(fc, "owan", owan.completionTimes)
		}
	}
	return []*figdata.Figure{fa, fb, fc}, nil
}

// addCDF downsamples a CDF to at most 30 points for readable tables.
func addCDF(f *figdata.Figure, name string, xs []float64) {
	cdf := metrics.CDF(xs)
	if len(cdf) == 0 {
		return
	}
	step := len(cdf)/30 + 1
	for i := 0; i < len(cdf); i += step {
		f.Add(name, cdf[i].X, cdf[i].F)
	}
	f.Add(name, cdf[len(cdf)-1].X, 1)
}

// Fig8 reproduces Figure 8: makespan improvement factor versus load.
func Fig8(topo TopoKind, sc Scale) (*figdata.Figure, error) {
	f := figdata.NewFigure("fig8-"+string(topo), "Improvement on makespan ("+string(topo)+")", "load", "factor")
	var cells []cellSpec
	for _, load := range Loads {
		cells = append(cells, cellSpec{"owan", load, 0})
		for _, base := range fig7Baselines {
			cells = append(cells, cellSpec{base, load, 0})
		}
	}
	stats, err := collectCells(topo, cells, sc)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, load := range Loads {
		owan := stats[k]
		k++
		for _, base := range fig7Baselines {
			st := stats[k]
			k++
			f.Add("vs-"+base, load, metrics.FactorOfImprovement(owan.makespan, st.makespan))
		}
	}
	return f, nil
}

// Fig9 reproduces Figure 9 for one topology: (a) % of transfers meeting
// deadlines versus σ, (b) % of bytes finishing before deadlines versus σ,
// and (c) the per-size-bin breakdown at σ=20.
func Fig9(topo TopoKind, sc Scale) ([]*figdata.Figure, error) {
	sub := string(topo)
	fa := figdata.NewFigure("fig9a-"+sub, "% transfers meeting deadlines ("+sub+")", "sigma", "percent")
	fb := figdata.NewFigure("fig9b-"+sub, "% bytes before deadlines ("+sub+")", "sigma", "percent")
	fc := figdata.NewFigure("fig9c-"+sub, "% transfers meeting deadlines by bin at sigma=20 ("+sub+")", "bin", "percent")
	var cells []cellSpec
	for _, sigma := range DeadlineFactors {
		for _, ap := range fig9Approaches {
			cells = append(cells, cellSpec{ap, 1.0, sigma})
		}
	}
	stats, err := collectCells(topo, cells, sc)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, sigma := range DeadlineFactors {
		for _, ap := range fig9Approaches {
			st := stats[k]
			k++
			fa.Add(ap, sigma, st.deadline.TransfersMetPct)
			fb.Add(ap, sigma, st.deadline.BytesMetPct)
			if sigma == 20 {
				for i, b := range []metrics.Bin{metrics.Small, metrics.Middle, metrics.Large} {
					fc.Add(ap, float64(i), st.binMetPct[b])
				}
			}
		}
	}
	return []*figdata.Figure{fa, fb, fc}, nil
}

// Fig10a reproduces Figure 10(a): total throughput over time under joint
// (simulated annealing) versus separate (greedy) optimization on the
// inter-DC topology.
func Fig10a(sc Scale) (*figdata.Figure, error) {
	f := figdata.NewFigure("fig10a", "Joint (SA) vs separate (greedy) optimization", "seconds", "Gbps")
	for _, ap := range []string{"owan", "greedy-separate"} {
		// Overload (λ=1.5) keeps a standing backlog, so per-slot goodput
		// reflects achievable network throughput — the quantity the
		// paper's Figure 10(a) plots — rather than the demand tail. Only
		// the arrival window is shown for the same reason. The annealing
		// gets a full-depth schedule: this microbenchmark measures search
		// quality, not the per-slot search budget (Fig 10d).
		scA := sc
		if scA.OwanIterations < 700 {
			scA.OwanIterations = 700
		}
		res, err := Run(RunSpec{Topo: InterDC, Approach: ap, Load: 1.5, Seed: 17, Scale: scA})
		if err != nil {
			return nil, err
		}
		name := "simulated-annealing"
		if ap != "owan" {
			name = "greedy"
		}
		for i, thr := range res.SlotThroughput {
			if i >= sc.HorizonSlots {
				break
			}
			f.Add(name, float64(i)*SlotSeconds, thr)
		}
	}
	return f, nil
}

// Fig10bAt reproduces Figure 10(b): throughput during a topology update with
// the consistent cross-layer schedule versus a one-shot update. The states
// come from two consecutive Owan slots on topo; the paper's figure uses the
// inter-DC topology, and other topologies (e.g. ISP200, a stress scale for
// the update scheduler) run the same harness. The inter-DC run keeps the
// paper figure's id; other topologies get a suffix.
func Fig10bAt(topo TopoKind, sc Scale) (*figdata.Figure, error) {
	net, err := BuildTopology(topo, sc, 3)
	if err != nil {
		return nil, err
	}
	reqs, err := Workload(topo, net, sc, 1, 0, 31)
	if err != nil {
		return nil, err
	}
	o := core.New(core.Config{Net: net, Policy: transfer.SJF, MaxIterations: sc.OwanIterations, Seed: 5})
	var ts []*transfer.Transfer
	for _, r := range reqs {
		if r.Arrival == 0 {
			ts = append(ts, transfer.NewTransfer(r))
		}
	}
	cur := topology.InitialTopology(net)
	stA := o.ComputeNetworkState(cur, ts, 0, SlotSeconds)
	// The paper's Figure 10(b) measures one testbed reconfiguration: a
	// handful of circuits move while traffic keeps flowing. Apply a few
	// annealing moves to stA's topology (the same elementary reconfigu-
	// ration Owan performs incrementally) and reallocate, rather than
	// running a full fresh search whose churn would swamp the comparison.
	topoB := stA.Topology
	for i := 0; i < 3; i++ {
		if n := o.ComputeNeighbor(topoB); n != nil {
			topoB = n
		}
	}
	for i, t := range ts {
		if i%2 == 0 {
			t.Remaining *= 0.8
		}
	}
	stB := o.Reallocate(topoB, ts, 1, SlotSeconds)

	opt := optical.NewState(net)
	toUpdateState := func(ns *core.NetworkState) *update.State {
		circuits := map[[2]int]int{}
		fibers := map[[2]int][]int{}
		for _, l := range ns.Effective.Links() {
			k := [2]int{l.U, l.V}
			circuits[k] = l.Count
			fibers[k] = opt.FiberPathIDs(l.U, l.V)
		}
		// Flatten the allocation in sorted transfer-id order: map
		// iteration order would otherwise make the emitted route list —
		// and with it the plan's op order — vary run to run.
		ids := make([]int, 0, len(ns.Alloc))
		for id := range ns.Alloc {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		var routes []update.Route
		for _, id := range ids {
			for _, pr := range ns.Alloc[id] {
				routes = append(routes, update.Route{TransferID: id, Path: pr.Path, Rate: pr.Rate})
			}
		}
		return &update.State{Circuits: circuits, CircuitFibers: fibers, Routes: routes}
	}
	oldState, newState := toUpdateState(stA), toUpdateState(stB)

	// Spare wavelengths per fiber: φ minus what the old state uses.
	used := map[int]int{}
	for k, n := range oldState.Circuits {
		for _, fid := range oldState.CircuitFibers[k] {
			used[fid] += n
		}
	}
	free := map[int]int{}
	for _, fb := range net.Fibers {
		free[fb.ID] = fb.Wavelengths - used[fb.ID]
		if free[fb.ID] < 0 {
			free[fb.ID] = 0
		}
	}
	plan, err := update.BuildPlan(update.Config{Theta: net.ThetaGbps, FiberFree: free}, oldState, newState)
	if err != nil {
		return nil, err
	}
	id, title := "fig10b", "Throughput during update: consistent vs one-shot"
	if topo != InterDC {
		id += "-" + string(topo)
		title += " (" + string(topo) + ")"
	}
	f := figdata.NewFigure(id, title, "seconds", "Gbps")
	for _, s := range plan.Timeline(oldState) {
		f.Add("consistent", s.T, s.Throughput)
	}
	for _, s := range update.OneShotTimeline(oldState, newState) {
		f.Add("one-shot", s.T, s.Throughput)
	}
	// With transport behaviour: the affected TCP flows time out during the
	// dark window and recover through slow start (50 ms RTT).
	tcpSamples, err := update.OneShotTCPTimeline(oldState, newState, 0.05)
	if err != nil {
		return nil, err
	}
	step := len(tcpSamples)/24 + 1
	for i := 0; i < len(tcpSamples); i += step {
		f.Add("one-shot-tcp", tcpSamples[i].T, tcpSamples[i].Throughput)
	}
	return f, nil
}

// Fig10c reproduces Figure 10(c): the breakdown of gains. Average
// completion time under rate-only, rate+routing, and full (topology)
// control, normalized by the full-control value at load 0.5.
func Fig10c(sc Scale) (*figdata.Figure, error) {
	f := figdata.NewFigure("fig10c", "Breakdown of gains (inter-DC)", "load", "normalized avg completion time")
	norm := 0.0
	type cell struct {
		name string
		load float64
		avg  float64
	}
	approaches := []string{"rate-only", "rate-routing", "owan"}
	var specs []cellSpec
	for _, load := range Loads {
		for _, ap := range approaches {
			specs = append(specs, cellSpec{ap, load, 0})
		}
	}
	stats, err := collectCells(InterDC, specs, sc)
	if err != nil {
		return nil, err
	}
	var cells []cell
	k := 0
	for _, load := range Loads {
		for _, ap := range approaches {
			st := stats[k]
			k++
			label := map[string]string{"rate-only": "rate", "rate-routing": "+rout.", "owan": "+topo."}[ap]
			cells = append(cells, cell{label, load, st.avgCT})
			if ap == "owan" && load == Loads[0] {
				norm = st.avgCT
			}
		}
	}
	if norm <= 0 {
		return nil, fmt.Errorf("experiments: degenerate normalization")
	}
	for _, c := range cells {
		f.Add(c.name, c.load, c.avg/norm)
	}
	return f, nil
}

// Fig10d reproduces Figure 10(d): average completion time versus the
// simulated-annealing budget. The paper's budget is wall-clock per slot; here
// it is the schedule length B in iterations (see Scheduler), so the figure is
// a pure function of the scale and the wall-clock axis is a per-host
// conversion of it.
func Fig10d(sc Scale) (*figdata.Figure, error) { return fig10d(sc, fig10dBudgets) }

// fig10dBudgets is Fig 10d's sweep of per-slot search budgets in iterations,
// 25·2^k for k = 0…7.
var fig10dBudgets = []int{25, 50, 100, 200, 400, 800, 1600, 3200}

// fig10d runs Fig 10d over the given budgets.
func fig10d(sc Scale, budgets []int) (*figdata.Figure, error) {
	f := figdata.NewFigure("fig10d", "Impact of SA running time (inter-DC)", "budget iterations", "avg completion seconds")
	// A single seed is too noisy to expose the budget effect; average a few.
	const seeds = 3
	for _, budget := range budgets {
		sum := 0.0
		for seed := int64(0); seed < seeds; seed++ {
			res, err := Run(RunSpec{
				Topo: InterDC, Approach: "owan", Load: 1, Seed: 23 + seed*101, Scale: sc,
				OwanBudget: budget,
			})
			if err != nil {
				return nil, err
			}
			sum += metrics.Mean(metrics.CompletionTimes(res.Transfers, SlotSeconds))
		}
		f.Add("owan", float64(budget), sum/seeds)
	}
	return f, nil
}

// FigTempering compares the plain per-slot annealer against the warm-started
// replica-exchange annealer on a drifting multi-slot workload: each series is
// (cumulative candidate evaluations, accepted slot energy), so "tempered
// reaches the plain annealer's energy in fewer evaluations" reads directly off
// the curves, the same on every host. Run on the paper's ISP topology at 40
// sites and an ISP100-class network, so both one-word and two-word bitset rows
// are measured.
func FigTempering(sc Scale) (*figdata.Figure, error) {
	f := figdata.NewFigure("tempering", "Warm-start + replica exchange vs plain annealing", "cumulative evaluations", "Gbps")
	const slots = 6
	var knobs core.Config
	sc.search(&knobs)
	ladder := temperingReplicas(knobs.Workers)
	variants := []struct {
		name     string
		replicas int
		warm     bool
	}{
		{"plain", 1, false},
		{"tempered", ladder, true},
	}
	for _, tc := range []struct {
		name  string
		sites int
	}{
		{"isp40", 40},
		{"isp100", 100},
	} {
		net := topology.ISP(tc.sites, sc.Ports, 1)
		// Per-slot demand sets with slot-to-slot locality: consecutive slot
		// pairs draw the same workload, so half the slots repeat the previous
		// demands exactly and half drift — the regime §3.2's incremental
		// reconfiguration argument targets.
		slotTransfers := make([][]*transfer.Transfer, slots)
		for s := 0; s < slots; s++ {
			reqs, err := Workload(ISP, net, sc, 1, 0, 61+int64(s/2))
			if err != nil {
				return nil, err
			}
			for _, r := range reqs {
				if r.Arrival == 0 {
					slotTransfers[s] = append(slotTransfers[s], transfer.NewTransfer(r))
				}
			}
		}
		for _, v := range variants {
			cfg := core.DefaultConfig(net)
			cfg.MaxIterations = sc.OwanIterations
			if v.replicas == 1 {
				// Equal total iteration budget: the single chain gets the
				// iterations of the whole ladder, so the ladder is not
				// penalized for running R chains per slot. Evaluations
				// still differ (memo hits and out-of-region candidates
				// cost none), which is why the x-axis counts them.
				cfg.MaxIterations = sc.OwanIterations * ladder
			}
			sc.search(&cfg)
			cfg.Replicas = v.replicas
			cfg.WarmStart = v.warm
			cfg.Seed = 7
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			o := core.New(cfg)
			cur := topology.InitialTopology(net)
			evals := 0
			for s := 0; s < slots; s++ {
				st := o.ComputeNetworkState(cur, slotTransfers[s], s, SlotSeconds)
				for _, e := range st.Stats.WorkerEvals {
					evals += e
				}
				f.Add(v.name+"-"+tc.name, float64(evals), st.Stats.BestEnergy)
				cur = st.Topology
			}
			o.Close()
		}
	}
	return f, nil
}

// temperingReplicas sizes the tempered variant's ladder to the evaluation
// parallelism: one rung per worker up to 4, at least 2 (a single-rung
// "ladder" would measure nothing).
func temperingReplicas(workers int) int {
	return min(max(workers, 2), 4)
}

// Validation reproduces the §5.1 check: flow-based simulation versus the
// chunk-level emulated testbed on Internet2, reporting the divergence of
// the average completion time (the paper reports <10%).
func Validation(sc Scale) (*figdata.Figure, error) {
	net, err := BuildTopology(Internet2, sc, 1)
	if err != nil {
		return nil, err
	}
	reqs, err := Workload(Internet2, net, sc, 1, 0, 41)
	if err != nil {
		return nil, err
	}
	// The two runs differ only in their data plane.
	run := func(dp sim.DataPlane) (*sim.Result, error) {
		sched, err := Scheduler("maxflow", net, sc, false, 1, 0)
		if err != nil {
			return nil, err
		}
		return sim.Run(sim.Config{
			Net: net, Initial: topology.InitialTopology(net), Scheduler: sched,
			Requests: reqs, SlotSeconds: SlotSeconds, MaxSlots: 50 * sc.HorizonSlots,
			DataPlane: dp,
		})
	}
	simRes, err := run(nil)
	if err != nil {
		return nil, err
	}
	tb, err := emu.New(net.ThetaGbps)
	if err != nil {
		return nil, err
	}
	emuRes, err := run(tb)
	if err != nil {
		return nil, err
	}
	f := figdata.NewFigure("validation", "Simulator vs emulated testbed", "metric", "seconds")
	sAvg := metrics.Mean(metrics.CompletionTimes(simRes.Transfers, SlotSeconds))
	eAvg := metrics.Mean(metrics.CompletionTimes(emuRes.Transfers, SlotSeconds))
	f.Add("simulator", 0, sAvg)
	f.Add("emulated-testbed", 0, eAvg)
	if sAvg > 0 {
		f.Add("divergence-pct", 0, 100*math.Abs(sAvg-eAvg)/sAvg)
	}
	return f, nil
}
