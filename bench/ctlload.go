package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"owan/internal/controlplane"
	"owan/internal/core"
	"owan/internal/loadgen"
	"owan/internal/store"
	"owan/internal/topology"
)

// ctlSpec is the live-controller workload: a controlplane server at
// core.DefaultConfig over the in-memory listener, a fixed-rate open-loop
// submit stream per client, and a goroutine calling Tick on a fixed period.
// Admission writes (submit -> store) run beside the slot's reads (Tick scans
// the transfer table and searches under the controller lock).
type ctlSpec struct {
	name, why     string
	net           func() *topology.Network
	clients       int
	ratePerClient float64 // submits per second, per client
	tickEvery     time.Duration
	meanGbit      float64 // transfer sizes are 1 + Exp(meanGbit)
}

var ctlSpecs = []ctlSpec{
	{name: "ctl-isp40", why: "live controller under an open-loop submit stream: admission writes beside Tick's search under the controller lock",
		net:     func() *topology.Network { return topology.ISP(40, 10, 1) },
		clients: 2, ratePerClient: 200, tickEvery: 200 * time.Millisecond, meanGbit: 2000},
}

// liveController is a served controller with its dialed clients.
type liveController struct {
	ctrl    *controlplane.Controller
	clients []*controlplane.Client
	served  chan struct{}
}

// startController is the set-up an operator waits for: network, controller
// (route tables inside core.New), listener and connected clients.
func startController(spec ctlSpec, seed int64) (*liveController, time.Duration, error) {
	t0 := time.Now()
	net := spec.net()
	cfg := core.DefaultConfig(net)
	cfg.Seed = seed
	ctrl, err := controlplane.NewServer(context.Background(), nil, controlplane.WithCoreConfig(cfg))
	if err != nil {
		return nil, 0, err
	}
	lc := &liveController{ctrl: ctrl, served: make(chan struct{})}
	lis := loadgen.NewMemListener()
	go func() {
		defer close(lc.served)
		ctrl.Serve(lis)
	}()
	for i := 0; i < spec.clients; i++ {
		cl, err := controlplane.Dial(context.Background(), "mem",
			controlplane.WithSite(i), controlplane.WithDialer(lis.Dial))
		if err != nil {
			lc.stop()
			return nil, 0, fmt.Errorf("dial client %d: %w", i, err)
		}
		lc.clients = append(lc.clients, cl)
	}
	return lc, time.Since(t0), nil
}

// stop closes the clients and the controller and waits for Serve to return.
func (lc *liveController) stop() {
	for _, cl := range lc.clients {
		cl.Close()
	}
	lc.ctrl.Close()
	<-lc.served
}

// submitSample is one submit: when it was due, when the generator sent it
// and when the ack arrived.
type submitSample struct {
	due, sent, acked time.Time
	id               int
	err              bool
}

type tickSample struct {
	start, end time.Time
	stats      core.SearchStats
}

// submitPlan is one client's generated input: the requests, in send order.
func submitPlan(spec ctlSpec, sites int, n int, seed int64) []controlplane.WireRequest {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]controlplane.WireRequest, n)
	for i := range reqs {
		src := rng.Intn(sites)
		dst := (src + 1 + rng.Intn(sites-1)) % sites
		reqs[i] = controlplane.WireRequest{Src: src, Dst: dst, SizeGbits: 1 + rng.ExpFloat64()*spec.meanGbit}
	}
	return reqs
}

func runCtl(spec ctlSpec, seed int64, seconds float64, traced bool, r *result) error {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Set up several times and keep the last: set-up is tens of milliseconds
	// here, so one sample — or the median of a few — is mostly scheduling and
	// collector noise.
	const setups = 25
	var setupS []float64
	var lc *liveController
	for i := 0; i < setups; i++ {
		if lc != nil {
			lc.stop()
		}
		var d time.Duration
		var err error
		t0 := time.Now()
		lc, d, err = startController(spec, seed)
		if err != nil {
			return err
		}
		tr.add("setup", t0, t0.Add(d), -1, i)
		setupS = append(setupS, d.Seconds())
	}
	defer lc.stop()
	sites := lc.ctrl.Net.NumSites()

	t0 := time.Now()
	perClient := int(seconds * spec.ratePerClient)
	plans := make([][]controlplane.WireRequest, spec.clients)
	for i := range plans {
		plans[i] = submitPlan(spec, sites, perClient, seed*7919+int64(i))
	}
	generate := time.Since(t0)

	// The load: every client sends on its schedule whatever the controller
	// is doing (open loop), one submit in flight per connection as the
	// client library allows, so a stall delays the submits queued behind it
	// and their latency — timed from when each was due — counts the wait.
	period := time.Duration(float64(time.Second) / spec.ratePerClient)
	samples := make([][]submitSample, spec.clients)
	seq0 := lc.ctrl.Store().Seq()
	start := time.Now().Add(10 * time.Millisecond)
	stopTick := make(chan struct{})
	var ticks []tickSample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(spec.tickEvery)
		defer tk.Stop()
		for {
			select {
			case <-stopTick:
				return
			case <-tk.C:
				a := time.Now()
				st := lc.ctrl.Tick()
				b := time.Now()
				ticks = append(ticks, tickSample{a, b, st})
			}
		}
	}()
	var cwg sync.WaitGroup
	for i := range plans {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			out := make([]submitSample, len(plans[i]))
			for k, req := range plans[i] {
				due := start.Add(time.Duration(k) * period)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				id, err := lc.clients[i].Submit(context.Background(), req)
				out[k] = submitSample{due: due, sent: sent, acked: time.Now(), id: id, err: err != nil}
			}
			samples[i] = out
		}(i)
	}
	cwg.Wait()
	loadEnd := time.Now()
	close(stopTick)
	wg.Wait()
	ctr := lc.ctrl.Counters()
	logEntries := lc.ctrl.Store().Seq() - seq0

	// Spans and latencies.
	for i, t := range ticks {
		tr.add("tick", t.start, t.end, -1, i)
	}
	// The load is cut into windows and each end-to-end timing but the median
	// tick is the median over the windows of the statistic inside each: one
	// host stall of a second makes 400 submits — the whole top 5 % of a 20 s
	// run — a second late, but it spoils one or two windows of ten.
	nWin := max(1, int(seconds/windowSeconds))
	window := func(t time.Time) int {
		w := int(t.Sub(start).Seconds() / seconds * float64(nWin))
		return min(max(w, 0), nWin-1)
	}
	admitWin, tickWin := make([][]float64, nWin), make([][]float64, nWin)
	var admitMs, lateMs, idleUs, tickMs []float64
	var stats []core.SearchStats
	for _, t := range ticks {
		d := ms(t.end.Sub(t.start))
		tickMs = append(tickMs, d)
		tickWin[window(t.start)] = append(tickWin[window(t.start)], d)
		stats = append(stats, t.stats)
	}
	overlapsTick := func(a, b time.Time) bool {
		i := sort.Search(len(ticks), func(i int) bool { return ticks[i].end.After(a) })
		return i < len(ticks) && ticks[i].start.Before(b)
	}
	submits, submitErrs, blocked := 0, 0, 0
	acked := map[int]int{}
	for c := range samples {
		for k, s := range samples[c] {
			submits++
			tr.add("submit", s.sent, s.acked, -1, c*perClient+k)
			if s.err {
				submitErrs++
				continue
			}
			acked[s.id]++
			admitMs = append(admitMs, ms(s.acked.Sub(s.due)))
			admitWin[window(s.due)] = append(admitWin[window(s.due)], ms(s.acked.Sub(s.due)))
			lateMs = append(lateMs, ms(s.sent.Sub(s.due)))
			if overlapsTick(s.sent, s.acked) {
				blocked++
			} else {
				idleUs = append(idleUs, us(s.acked.Sub(s.sent)))
			}
		}
	}

	// Audit the durable store against the acks, after the load: every acked
	// id has exactly one record and no token was admitted twice.
	lost, dup, delivered := auditStore(lc.ctrl.Store(), acked)
	slots := lc.ctrl.Slot()

	r.attempted = submits + len(ticks)
	r.failed = submitErrs + lost + dup
	if len(ticks) == 0 || len(admitMs) == 0 {
		return fmt.Errorf("%s: no ticks or no acked submits in %.1fs", spec.name, seconds)
	}
	r.set("setup_s", median(setupS))
	r.set("slot_p50_ms", median(tickMs))
	r.set("slots_per_s", overWindows(tickWin, func(w []float64) float64 { return float64(len(w)) / (sum(w) / 1000) }))
	r.set("wait_p50_ms", overWindows(admitWin, median))
	r.set("wait_p95_ms", overWindows(admitWin, func(w []float64) float64 { return percentile(w, 0.95) }))
	r.set("goodput_gbps", delivered/(float64(slots)*lc.ctrl.SlotSeconds))
	if !traced {
		return nil
	}

	// One fiber failure after the load: FailFiber plus the first Tick on the
	// reduced network, the live controller's failure response.
	t0 = time.Now()
	if err := lc.ctrl.FailFiber(lc.ctrl.Net.Fibers[0].ID); err != nil {
		return err
	}
	lc.ctrl.Tick()
	failFiber := time.Since(t0)
	tr.add("controlplane.fail_fiber", t0, t0.Add(failFiber), -1, len(ticks))

	setSearchLayers(r, stats)
	r.set("core.search_ms", median(mapStats(stats, func(s core.SearchStats) float64 { return ms(s.Elapsed) })))
	r.set("sim.other_ms", median(tickMs)-r.metrics["core.search_ms"])
	r.set("sim.slot_p95_ms", percentile(tickMs, 0.95))
	r.set("sim.slot_max_ms", maxOf(tickMs))
	r.set("controlplane.tick_p95_ms", percentile(tickMs, 0.95))
	r.set("controlplane.submit_idle_us", median(idleUs))
	r.set("controlplane.submit_blocked_frac", ratio(float64(blocked), float64(len(admitMs))))
	r.set("admit_p50_ms", r.metrics["wait_p50_ms"])
	r.set("admit_p95_ms", r.metrics["wait_p95_ms"])
	r.set("controlplane.admit_p99_ms", percentile(admitMs, 0.99))
	r.set("admit_per_s", float64(len(admitMs))/loadEnd.Sub(start).Seconds())
	r.set("controlplane.batch_factor", ratio(float64(ctr.Admitted), float64(ctr.AdmitBatches)))
	r.set("controlplane.overloads", float64(ctr.Overloads))
	r.set("controlplane.rate_pushes", float64(ctr.RatePushes))
	r.set("controlplane.push_failures", float64(ctr.PushFailures))
	r.set("controlplane.fail_fiber_ms", ms(failFiber))
	r.set("controlplane.gen_late_ms", mean(lateMs))
	r.set("store.putbatch_us", probePutBatch())
	r.set("store.log_entries_per_slot", ratio(float64(logEntries), float64(len(ticks))))
	r.set("workload.generate_ms", ms(generate))
	probeNetwork(r, spec.net, seed, false)
	r.set("trace.overhead_frac", float64(tr.count())*recordCost().Seconds()/loadEnd.Sub(start).Seconds())
	return tr.write(r.outDir, spec.name)
}

// windowSeconds is the length of the windows runCtl cuts the load into.
const windowSeconds = 2

// overWindows is the median over the windows that have samples of a
// statistic of each.
func overWindows(wins [][]float64, stat func([]float64) float64) float64 {
	var per []float64
	for _, w := range wins {
		if len(w) > 0 {
			per = append(per, stat(w))
		}
	}
	return median(per)
}

// auditStore cross-checks the store's transfer records against the acks and
// returns acked ids without exactly one record, tokens recorded under more
// than one id, and the gigabits the records say were delivered.
func auditStore(st *store.Store, acked map[int]int) (lost, dup int, deliveredGbit float64) {
	rows := map[int]int{}
	byToken := map[string]int{}
	for _, v := range st.SnapshotPrefix("transfer/") {
		rec, err := controlplane.DecodeTransferRecord(v)
		if err != nil {
			lost++
			continue
		}
		rows[rec.ID]++
		if rec.Token != "" {
			byToken[rec.Token]++
		}
		deliveredGbit += rec.SizeGbits - rec.RemainingGbits
	}
	for id, n := range acked {
		if rows[id] != 1 || n != 1 {
			lost++
		}
	}
	for _, n := range byToken {
		if n > 1 {
			dup++
		}
	}
	return lost, dup, deliveredGbit
}

// probePutBatch times store.PutBatch at the shape admission gives it: a
// batch of a few records of about the size of a persisted transfer.
func probePutBatch() float64 {
	st := store.New()
	val := make([]byte, 160)
	const batches, per = 2000, 4
	kvs := make([][]store.KV, batches)
	for b := range kvs {
		for i := 0; i < per; i++ {
			kvs[b] = append(kvs[b], store.KV{Key: fmt.Sprintf("transfer/s0/%08d", b*per+i), Value: val})
		}
	}
	t0 := time.Now()
	for _, batch := range kvs {
		st.PutBatch(batch)
	}
	return us(time.Since(t0)) / batches
}
