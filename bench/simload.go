package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"owan/internal/core"
	"owan/internal/experiments"
	"owan/internal/sim"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// simSpec is one simulator workload: sim.Run with the Owan scheduler at
// core.DefaultConfig (only Seed set), update planning on, 4 s of
// reconfiguration outage, SJF, transfers of the paper's full-scale sizes.
//
// A run is a sequence of identical-shape episodes (workload seed, seed+1,
// ...) so that it can measure for a given wall time without the load the
// slots see depending on how fast the machine is: every episode sweeps the
// same arrival profile, only whole episodes are measured, and episode 0 —
// which always completes — carries the deterministic outputs.
type simSpec struct {
	name, why string
	// net builds the network. Each call must return a fresh *Network: the
	// optical route-table cache is keyed by pointer, so a fresh one pays the
	// cold build that a starting controller pays.
	net func() *topology.Network
	// arrivalSlots is the horizon transfers arrive over; slots bounds the run.
	// The first backlogSlots slots' worth of arrivals are all present at slot
	// 0, so an episode starts near its steady load instead of ramping up from
	// an empty network for as long as a transfer lasts.
	arrivalSlots, slots int
	// cutFrom/cutEvery inject one fiber failure at slot cutFrom and every
	// cutEvery-th slot after it; cutEvery 0 means no failures.
	cutFrom, cutEvery int
}

// backlogSlots is about how long a mean-size transfer (5 TB) takes on one
// 10 Gbit/s circuit, in 5-minute slots.
const backlogSlots = 12

var simSpecs = []simSpec{
	{name: "slot-isp40", why: "paper-scale slots: set-up is milliseconds, so the annealing loop and the energy kernel are nearly all of the time",
		net: func() *topology.Network { return topology.ISP(40, 10, 1) }, arrivalSlots: 180, slots: 200},
	{name: "slot-isp200", why: "200-site slots: >64-site multi-word masks, route-table set-up takes seconds, one energy evaluation costs milliseconds",
		net: func() *topology.Network { return topology.ISP(200, 10, 1) }, arrivalSlots: 50, slots: 60},
	{name: "cut-isp100", why: "fiber cuts: the optical route tables are rebuilt rather than read, twice per cut, before the first post-cut search",
		net: func() *topology.Network { return topology.ISP(100, 10, 1) }, arrivalSlots: 24, slots: 28, cutFrom: 4, cutEvery: 3},
}

// slotSample is what the wrapping scheduler saw of one Schedule call.
type slotSample struct {
	interval time.Duration // previous Schedule return (or Run entry) to this one, checks excluded
	search   time.Duration // the Schedule call itself
	cut      bool          // a fiber failure was delivered in this interval
	active   int
	stats    core.SearchStats
	bad      bool // an output invariant failed
}

// probeSched wraps the shipped sim.OwanScheduler. It times every call
// sim.Run makes into the scheduler, checks each slot's output, and in a
// traced run records spans and replays the slot's inputs through the lower
// layers. Everything it does itself is kept out of the slot intervals.
type probeSched struct {
	inner  *sim.OwanScheduler
	net    *topology.Network
	tr     *tracer
	probes *layerProbes // nil in an untraced run
	idBase int          // slot ids continue across episodes

	last        time.Time     // previous Schedule return, or Run entry
	paused      time.Duration // own work since last, excluded from the interval
	pausedTotal time.Duration
	cutPending  bool
	cutSpan     [2]time.Time
	withoutMs   []float64
	samples     []slotSample
	prevTopo    *topology.LinkSet
	prevAlloc   map[int][]transfer.PathRate
}

func (p *probeSched) Name() string { return p.inner.Name() }

// OnFiberFailure implements sim.FailureAware by forwarding to the shipped
// scheduler (Owan.WithoutFiber) and timing it.
func (p *probeSched) OnFiberFailure(fiberID int) {
	t0 := time.Now()
	p.inner.OnFiberFailure(fiberID)
	t1 := time.Now()
	p.cutPending = true
	p.cutSpan = [2]time.Time{t0, t1}
	p.withoutMs = append(p.withoutMs, ms(t1.Sub(t0)))
}

func (p *probeSched) Schedule(slot int, topo *topology.LinkSet, active []*transfer.Transfer) (*topology.LinkSet, map[int][]transfer.PathRate) {
	t0 := time.Now()
	newTopo, alloc := p.inner.Schedule(slot, topo, active)
	t1 := time.Now()

	s := slotSample{
		interval: t1.Sub(p.last) - p.paused,
		search:   t1.Sub(t0),
		cut:      p.cutPending,
		active:   len(active),
		stats:    p.inner.LastStats,
	}
	s.bad = !slotOutputOK(p.net, newTopo, alloc, active, experiments.SlotSeconds)
	id := p.idBase + len(p.samples)
	if p.tr != nil {
		// The interval [last+paused, t1] splits exactly into sim.other (the
		// previous slot's update plan and Advance, failure delivery to the
		// planner, bookkeeping), core.without_fiber and core.search.
		from := p.last.Add(p.paused)
		parent := p.tr.add("slot", from, t1, -1, id)
		otherEnd := t0
		if s.cut {
			p.tr.add("core.without_fiber", p.cutSpan[0], p.cutSpan[1], parent, id)
			otherEnd = p.cutSpan[0]
		}
		p.tr.add("sim.other", from, otherEnd, parent, id)
		p.tr.add("core.search", t0, t1, parent, id)
		if p.probes != nil && len(p.samples)%10 == 0 {
			p.probes.replay(p.tr, parent, id, slot, p.prevTopo, p.prevAlloc, newTopo, alloc, active)
		}
		p.prevTopo, p.prevAlloc = newTopo, alloc
	}
	p.samples = append(p.samples, s)
	p.cutPending = false
	p.last = t1
	p.paused = time.Since(t1)
	p.pausedTotal += p.paused
	return newTopo, alloc
}

// slotOutputOK checks one slot's output from outside: no site uses more
// router ports than it has, no link carries more than its circuits' capacity,
// and no transfer is sent faster than would finish it within the slot.
func slotOutputOK(net *topology.Network, topo *topology.LinkSet, alloc map[int][]transfer.PathRate, active []*transfer.Transfer, slotSeconds float64) bool {
	const eps = 1e-6
	if topo.PortViolations(net) != 0 {
		return false
	}
	load := map[[2]int]float64{}
	for _, t := range active {
		rate := 0.0
		for _, pr := range alloc[t.ID] {
			rate += pr.Rate
			for i := 0; i+1 < len(pr.Path); i++ {
				u, v := pr.Path[i], pr.Path[i+1]
				if u > v {
					u, v = v, u
				}
				load[[2]int{u, v}] += pr.Rate
			}
		}
		if rate > t.Remaining/slotSeconds*(1+eps)+eps {
			return false
		}
	}
	for l, r := range load {
		if r > float64(topo.Get(l[0], l[1]))*net.ThetaGbps*(1+eps)+eps {
			return false
		}
	}
	return true
}

// episode is one sim.Run with its own freshly built controller.
type episode struct {
	setup, generate time.Duration
	run             time.Duration // sim.Run wall time, own work excluded
	samples         []slotSample
	withoutMs       []float64
	res             *sim.Result
	badRun          bool         // a whole-run invariant failed
	probes          *layerProbes // traced runs only
}

// digest is the deterministic record of episode 0: a change to the search
// trajectory, the allocator or the simulator's accounting moves it.
type digest struct {
	GoodputGbps float64 `json:"goodput_gbps"`
	Completed   int     `json:"completed"`
	Churn       int     `json:"churn"`
	Iterations  int     `json:"iterations"`
}

func (d digest) matches(o digest) bool {
	return math.Abs(d.GoodputGbps-o.GoodputGbps) <= 1e-9*math.Abs(o.GoodputGbps) &&
		d.Completed == o.Completed && d.Churn == o.Churn && d.Iterations == o.Iterations
}

// buildController is the set-up a starting controller pays: the network,
// its optical route tables (inside core.New) and the initial topology.
func buildController(spec simSpec, seed int64) (net *topology.Network, o *core.Owan, initial *topology.LinkSet, took time.Duration) {
	t0 := time.Now()
	net = spec.net()
	cfg := core.DefaultConfig(net)
	cfg.Seed = seed
	o = core.New(cfg)
	initial = topology.InitialTopology(net)
	return net, o, initial, time.Since(t0)
}

// cutSchedule picks the fibers to fail: a seeded shuffle of the fiber ids,
// skipping any cut that would disconnect what survives.
func cutSchedule(spec simSpec, net *topology.Network, seed int64) map[int][]int {
	if spec.cutEvery <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(net.Fibers))
	alive := *net
	alive.Fibers = append([]topology.Fiber(nil), net.Fibers...)
	out := map[int][]int{}
	next := 0
	for slot := spec.cutFrom; slot < spec.slots; slot += spec.cutEvery {
		for ; next < len(order); next++ {
			id := net.Fibers[order[next]].ID
			rest := alive
			rest.Fibers = nil
			for _, f := range alive.Fibers {
				if f.ID != id {
					rest.Fibers = append(rest.Fibers, f)
				}
			}
			if rest.FiberGraph().Connected() {
				alive = rest
				out[slot] = []int{id}
				next++
				break
			}
		}
	}
	return out
}

func runEpisode(spec simSpec, seed int64, idBase int, tr *tracer, traced bool) (*episode, error) {
	t0 := time.Now()
	net, o, initial, setup := buildController(spec, seed)
	tr.add("setup", t0, t0.Add(setup), -1, idBase)
	ep := &episode{setup: setup}
	ps := &probeSched{
		inner:  &sim.OwanScheduler{O: o, SlotSeconds: experiments.SlotSeconds},
		net:    net,
		tr:     tr,
		idBase: idBase,
	}
	// The scheduler swaps its Owan on every cut; close whichever is last.
	defer func() { ps.inner.Close() }()

	t0 = time.Now()
	sc := experiments.FullScale()
	sc.HorizonSlots = spec.arrivalSlots + backlogSlots
	reqs, err := experiments.Workload(experiments.ISP, net, sc, 1, 0, seed)
	if err != nil {
		return nil, err
	}
	for i := range reqs {
		reqs[i].Arrival = max(0, reqs[i].Arrival-backlogSlots)
	}
	ep.generate = time.Since(t0)

	if traced {
		ps.probes = newLayerProbes(net, seed)
		defer ps.probes.close()
		ep.probes = ps.probes
	}
	start := time.Now()
	ps.last = start
	res, err := sim.Run(sim.Config{
		Net:             net,
		Initial:         initial,
		Scheduler:       ps,
		Requests:        reqs,
		SlotSeconds:     experiments.SlotSeconds,
		MaxSlots:        spec.slots,
		ReconfigSeconds: 4,
		FiberFailures:   cutSchedule(spec, net, seed),
		PlanUpdates:     true,
	})
	if err != nil {
		return nil, err
	}
	ep.run = time.Since(start) - ps.pausedTotal
	ep.res = res
	ep.samples = ps.samples
	ep.withoutMs = ps.withoutMs
	// One UpdateStat and one throughput sample per simulated slot.
	ep.badRun = len(res.Updates) != res.Slots || len(res.SlotThroughput) != res.Slots
	return ep, nil
}

func (ep *episode) digest() digest {
	d := digest{GoodputGbps: mean(ep.res.SlotThroughput), Completed: len(ep.res.Completed())}
	for _, c := range ep.res.Churn {
		d.Churn += c
	}
	for _, s := range ep.samples {
		d.Iterations += s.stats.Iterations
	}
	return d
}

// runSim measures a simulator workload for about `seconds` of sim.Run time.
func runSim(spec simSpec, seed int64, seconds float64, traced bool, r *result) error {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var eps []*episode
	measured := 0.0
	for {
		ep, err := runEpisode(spec, seed+int64(len(eps)), len(eps)*spec.slots, tr, traced)
		if err != nil {
			return fmt.Errorf("%s: episode %d: %w", spec.name, len(eps), err)
		}
		eps = append(eps, ep)
		measured += ep.run.Seconds()
		// Whole episodes only: stop at the count whose total is nearest the
		// requested time.
		if seconds-measured < 0.5*measured/float64(len(eps)) {
			break
		}
	}

	var setupS, slotMs, cutMs, searchMs, otherMs, allMs, active, churn, withoutMs, generateMs []float64
	var stats []core.SearchStats
	var ops, rounds, deadlocks float64
	slots := 0
	for _, ep := range eps {
		setupS = append(setupS, ep.setup.Seconds())
		generateMs = append(generateMs, ms(ep.generate))
		withoutMs = append(withoutMs, ep.withoutMs...)
		slots += len(ep.samples)
		for _, s := range ep.samples {
			if s.cut {
				cutMs = append(cutMs, ms(s.interval))
			} else {
				slotMs = append(slotMs, ms(s.interval))
				otherMs = append(otherMs, ms(s.interval-s.search))
			}
			allMs = append(allMs, ms(s.interval))
			searchMs = append(searchMs, ms(s.search))
			active = append(active, float64(s.active))
			stats = append(stats, s.stats)
			if s.bad {
				r.failed++
			}
		}
		if ep.badRun {
			r.failed++
		}
		for _, c := range ep.res.Churn {
			churn = append(churn, float64(c))
		}
		for _, u := range ep.res.Updates {
			ops += float64(u.Ops)
			rounds += float64(u.Rounds)
			if u.Err {
				deadlocks++
			}
		}
	}
	r.attempted = slots
	if len(slotMs) == 0 || (spec.cutEvery > 0 && len(cutMs) == 0) {
		return fmt.Errorf("%s: no slots measured", spec.name)
	}
	// Cheap set-ups are repeated, within two seconds in all, so that their
	// median is not one sample of scheduling noise; a set-up that takes
	// seconds is sampled once per episode.
	for extra := 0.0; len(setupS) < 9 && extra+median(setupS) <= 2; {
		_, o, _, d := buildController(spec, seed)
		o.Close()
		setupS = append(setupS, d.Seconds())
		extra += d.Seconds()
	}
	d0 := eps[0].digest()
	r.digest = &d0

	r.set("setup_s", median(setupS))
	r.set("slot_p50_ms", median(slotMs))
	r.set("slots_per_s", float64(slots)/measured)
	// What the network waits on: the controller's decision (the Schedule
	// call) on the slot workloads, the whole failure response on the cut one.
	wait := searchMs
	if spec.cutEvery > 0 {
		wait = cutMs
	}
	r.set("wait_p50_ms", median(wait))
	r.set("wait_p95_ms", percentile(wait, 0.95))
	r.set("goodput_gbps", d0.GoodputGbps)
	if !traced {
		return nil
	}

	probes := eps[0].probes
	for _, ep := range eps[1:] {
		probes.merge(ep.probes)
	}
	for _, name := range []string{"transfer.order_us", "alloc.demands", "optical.provision_effective_us", "alloc.throughput_us",
		"optical.provision_topology_us", "alloc.greedy_us", "core.energy_us", "optical.snapshot_build_us",
		"optical.provision_delta_us", "update.plan_us"} {
		r.set(name, median(probes.us[name]))
	}
	setSearchLayers(r, stats)
	r.set("core.search_ms", median(searchMs))
	// An estimate until the search has spans of its own: what is left of the
	// median search after its evaluations at the replayed kernels' cost.
	kernelMs := (r.metrics["optical.provision_effective_us"] + r.metrics["alloc.throughput_us"]) / 1000
	r.set("core.search_self_ms", r.metrics["core.search_ms"]-r.metrics["core.evals"]*kernelMs)
	r.set("update.ops", ratio(ops, float64(slots)))
	r.set("update.rounds", ratio(rounds, float64(slots)))
	r.set("update.deadlocks", deadlocks)
	r.set("sim.other_ms", median(otherMs))
	r.set("sim.slot_p95_ms", percentile(slotMs, 0.95))
	r.set("sim.slot_max_ms", maxOf(allMs))
	r.set("sim.active_transfers", mean(active))
	r.set("sim.churn", mean(churn))
	r.set("workload.generate_ms", median(generateMs))
	if spec.cutEvery > 0 {
		r.set("cut_response_p50_ms", median(cutMs))
		r.set("core.without_fiber_ms", median(withoutMs))
	}
	probeNetwork(r, spec.net, seed, spec.cutEvery > 0)
	r.set("trace.overhead_frac", float64(tr.count())*recordCost().Seconds()/measured)
	return tr.write(r.outDir, spec.name)
}
