package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"owan/internal/alloc"
	"owan/internal/core"
	"owan/internal/experiments"
	"owan/internal/graph"
	"owan/internal/optical"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/update"
)

// layerProbes replays a slot's inputs through the layers below the search —
// optical provisioning, the allocator, the update planner — by calling their
// exported functions on state the benchmark owns. It runs only in a traced
// run, inside the wrapping scheduler, and its time is excluded from the slot.
//
// The optical state is built on the episode's original network: after a
// fiber cut the controller works on a reduced copy the benchmark cannot
// reach, and the probes keep timing the kernels on the intact one.
type layerProbes struct {
	net    *topology.Network
	opt    *optical.State
	snap   optical.Snapshot
	j      optical.Journal
	al     *alloc.Allocator
	owan   *core.Owan
	upd    *update.Scratch
	states [2]update.State
	used   map[int]int
	free   map[int]int
	us     map[string][]float64 // per-call microseconds, one sample per replay
}

func newLayerProbes(net *topology.Network, seed int64) *layerProbes {
	cfg := core.DefaultConfig(net)
	cfg.Seed = seed
	return &layerProbes{
		net:  net,
		opt:  optical.NewState(net),
		al:   alloc.NewAllocator(),
		owan: core.New(cfg),
		upd:  update.NewScratch(),
		used: map[int]int{},
		free: map[int]int{},
		us:   map[string][]float64{},
	}
}

func (lp *layerProbes) close() { lp.owan.Close() }

// replay times each layer on one slot's inputs; every probe becomes a span
// parented to the slot.
func (lp *layerProbes) replay(tr *tracer, parent, id, slot int, prevTopo *topology.LinkSet, prevAlloc map[int][]transfer.PathRate,
	topo *topology.LinkSet, allocated map[int][]transfer.PathRate, active []*transfer.Transfer) {
	const reps = 3
	probe := func(name string, n int, f func()) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		t1 := time.Now()
		lp.us[name] = append(lp.us[name], us(t1.Sub(t0))/float64(n))
		tr.add(name, t0, t1, parent, id)
	}
	theta := lp.net.ThetaGbps

	// Once: a second sort would see sorted input.
	ordered := append([]*transfer.Transfer(nil), active...)
	probe("transfer.order_us", 1, func() { transfer.Order(ordered, transfer.SJF, slot, core.DefaultStarveSlots) })
	demands := alloc.DemandsFromTransfers(ordered, experiments.SlotSeconds)
	lp.us["alloc.demands"] = append(lp.us["alloc.demands"], float64(len(demands)))

	var eff []topology.Link
	probe("optical.provision_effective_us", reps, func() { eff = lp.opt.ProvisionEffectiveEnum(topo) })
	eff = append([]topology.Link(nil), eff...) // the enumeration lives in the state's scratch
	probe("alloc.throughput_us", reps, func() { lp.al.ThroughputLinks(topo.N, eff, theta, demands) })
	var plan *optical.TopologyPlan
	probe("optical.provision_topology_us", reps, func() { plan = lp.opt.ProvisionTopology(topo) })
	effSet := plan.Effective(topo.N)
	probe("alloc.greedy_us", reps, func() { lp.al.Greedy(effSet, theta, demands) })
	probe("core.energy_us", reps, func() { lp.owan.Energy(topo, demands) })
	probe("optical.snapshot_build_us", reps, func() { lp.opt.BuildSnapshot(&lp.snap, topo) })
	if removed, added, ok := oneSwap(topo); ok {
		probe("optical.provision_delta_us", reps, func() {
			lp.opt.ProvisionDelta(&lp.snap, removed, added, &lp.j)
			lp.opt.RevertDelta(&lp.j)
		})
	}
	if prevTopo != nil {
		probe("update.plan_us", 1, func() { lp.planUpdate(prevTopo, prevAlloc, topo, allocated) })
	}
}

// oneSwap builds the annealing search's elementary move on topo — one circuit
// off (u,v) and off (p,q), one onto (u,p) and onto (v,q) — as the net link
// changes ProvisionDelta takes.
func oneSwap(topo *topology.LinkSet) (removed, added []topology.Link, ok bool) {
	links := topo.Links()
	for i := 1; i < len(links); i++ {
		a, b := links[0], links[i]
		if a.U == b.U || a.U == b.V || a.V == b.U || a.V == b.V {
			continue
		}
		canon := func(u, v int) topology.Link {
			if u > v {
				u, v = v, u
			}
			return topology.Link{U: u, V: v, Count: 1}
		}
		removed = []topology.Link{canon(a.U, a.V), canon(b.U, b.V)}
		added = []topology.Link{canon(a.U, b.U), canon(a.V, b.V)}
		for _, s := range [][]topology.Link{removed, added} {
			sort.Slice(s, func(i, j int) bool { return s[i].U < s[j].U || (s[i].U == s[j].U && s[i].V < s[j].V) })
		}
		return removed, added, true
	}
	return nil, nil, false
}

// planUpdate does what sim's update planner does for one slot transition:
// build both update states, the spare wavelengths, the consistent plan and
// its throughput timeline.
func (lp *layerProbes) planUpdate(prevTopo *topology.LinkSet, prevAlloc map[int][]transfer.PathRate, topo *topology.LinkSet, allocated map[int][]transfer.PathRate) {
	fill := func(st *update.State, ls *topology.LinkSet, al map[int][]transfer.PathRate) {
		st.Reset()
		st.SetTopology(ls, lp.opt.FiberPathIDs)
		ids := make([]int, 0, len(al))
		for id := range al {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			for _, pr := range al[id] {
				if pr.Rate > 0 {
					st.AppendRoute(id, pr.Path, pr.Rate)
				}
			}
		}
	}
	prev, next := &lp.states[0], &lp.states[1]
	fill(prev, prevTopo, prevAlloc)
	fill(next, topo, allocated)
	clear(lp.used)
	for k, c := range prev.Circuits {
		for _, fid := range prev.CircuitFibers[k] {
			lp.used[fid] += c
		}
	}
	clear(lp.free)
	for _, fb := range lp.net.Fibers {
		lp.free[fb.ID] = max(0, fb.Wavelengths-lp.used[fb.ID])
	}
	plan, err := lp.upd.BuildPlan(update.Config{Theta: lp.net.ThetaGbps, FiberFree: lp.free}, prev, next)
	if err == nil {
		update.MinThroughput(lp.upd.Timeline(plan, prev))
	}
}

// merge folds another episode's samples into lp.
func (lp *layerProbes) merge(o *layerProbes) {
	for k, v := range o.us {
		lp.us[k] = append(lp.us[k], v...)
	}
}

// probeNetwork times the layers that depend on the network alone, once per
// traced run, on a fresh copy of it: the cold route-table build (what
// set-up and every fiber cut pay), a warm NewState, a warm core.New, the
// k-shortest-path kernel under the route tables and — unless the workload
// measured real cuts — one Owan.WithoutFiber.
func probeNetwork(r *result, build func() *topology.Network, seed int64, haveCuts bool) {
	t0 := time.Now()
	net := build()
	r.set("topology.build_ms", ms(time.Since(t0)))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	optical.NewState(net)
	cold := time.Since(t0)
	runtime.ReadMemStats(&m1)
	r.set("optical.route_tables_s", cold.Seconds())
	r.set("optical.route_tables_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	r.set("optical.route_tables_mallocs", float64(m1.Mallocs-m0.Mallocs))

	t0 = time.Now()
	optical.NewState(net)
	r.set("optical.new_state_warm_ms", ms(time.Since(t0)))

	cfg := core.DefaultConfig(net)
	cfg.Seed = seed
	t0 = time.Now()
	o := core.New(cfg)
	r.set("core.new_ms", ms(time.Since(t0)))
	defer o.Close()
	if !haveCuts {
		t0 = time.Now()
		nw := o.WithoutFiber(net.Fibers[0].ID)
		r.set("core.without_fiber_ms", ms(time.Since(t0)))
		nw.Close()
	}

	g := net.FiberGraph()
	var sc graph.Scratch
	rng := rand.New(rand.NewSource(seed))
	const pairs = 200
	t0 = time.Now()
	for i := 0; i < pairs; i++ {
		u := rng.Intn(g.N())
		v := (u + 1 + rng.Intn(g.N()-1)) % g.N()
		g.KShortestPathsScratch(&sc, u, v, 3) // 3 = optical's fiber-route fan-out
	}
	r.set("graph.ksp_us", us(time.Since(t0))/pairs)
}

func mapStats(stats []core.SearchStats, f func(core.SearchStats) float64) []float64 {
	out := make([]float64, len(stats))
	for i, s := range stats {
		out[i] = f(s)
	}
	return out
}

// setSearchLayers reports what the search said it did (core.SearchStats),
// per slot or summed over the run.
func setSearchLayers(r *result, stats []core.SearchStats) {
	var iters, evals, accepted, dHit, dFall, pHit, pMiss, cHit, cMiss float64
	perSlotEvals := make([]float64, len(stats))
	for i, s := range stats {
		for _, e := range s.WorkerEvals {
			perSlotEvals[i] += float64(e)
		}
		iters += float64(s.Iterations)
		evals += perSlotEvals[i]
		accepted += float64(s.Accepted)
		dHit += float64(s.DeltaHits)
		dFall += float64(s.DeltaFallbacks)
		pHit += float64(s.ProvisionHits)
		pMiss += float64(s.ProvisionMisses)
		cHit += float64(s.CacheHits)
		cMiss += float64(s.CacheMisses)
	}
	r.set("core.iterations", median(mapStats(stats, func(s core.SearchStats) float64 { return float64(s.Iterations) })))
	r.set("core.evals", median(perSlotEvals))
	r.set("core.accept_ratio", ratio(accepted, iters))
	r.set("core.delta_hit_ratio", ratio(dHit, dHit+dFall))
	r.set("core.provision_cache_hit_ratio", ratio(pHit, pHit+pMiss))
	r.set("core.energy_cache_hit_ratio", ratio(cHit, cHit+cMiss))
}
