// Package loadgen drives the controller's sharded admission pipeline
// with large fleets of synthetic clients — 10^4 to 10^5 — over an
// in-memory transport, optionally degraded by faultnet (drops, delays,
// corruption, partitions). Every submission carries an idempotency
// token, so after the run the harness can audit the controller's
// durable store and prove the exactly-once property the protocol
// promises: no acked submit lost, no token admitted twice, whatever the
// network did. Results summarize admission throughput, client-observed
// submit latency (p50/p99), and overload-rejection counts.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"owan/internal/controlplane"
	"owan/internal/core"
	"owan/internal/faultnet"
	"owan/internal/metrics"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// Config tunes a load-generation run. Zero values take defaults.
type Config struct {
	// Clients is the fleet size; SubmitsPerClient how many transfers each
	// client submits (each under a fresh idempotency token).
	Clients          int
	SubmitsPerClient int
	// Seed drives every random decision: request sizes, retry jitter, and
	// the fault schedule. Two runs with the same config are equivalent.
	Seed int64

	// Controller knobs (see controlplane.NewServer options).
	Shards      int
	QueueDepth  int
	MaxClients  int
	SlotSeconds float64
	// TickEvery, when positive, runs controller slot ticks (rate pushes
	// included) concurrently with the submission load, so the audit is
	// taken against a running scheduler: a tick's search runs off the
	// controller lock and does not hold admission up. Zero measures
	// admission alone.
	TickEvery time.Duration

	// Client-side patience.
	RPCTimeout     time.Duration
	SubmitDeadline time.Duration
	WriteTimeout   time.Duration

	// Fault is the schedule applied to the degraded fraction of the
	// fleet (FaultFrac in [0,1]); the rest dial clean.
	Fault     faultnet.Config
	FaultFrac float64
	// PartitionFrac of the fleet is severed PartitionAfter into the run
	// (0 = from the very start, before any dial) and healed PartitionFor
	// later. Partitioned clients back off and retry under the same
	// tokens, so they must converge after the heal.
	PartitionFrac  float64
	PartitionAfter time.Duration
	PartitionFor   time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.Clients <= 0 {
		cfg.Clients = 1000
	}
	if cfg.SubmitsPerClient <= 0 {
		cfg.SubmitsPerClient = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = controlplane.DefaultShards
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = controlplane.DefaultQueueDepth
	}
	if cfg.SlotSeconds <= 0 {
		cfg.SlotSeconds = 300
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 5 * time.Second
	}
	if cfg.SubmitDeadline <= 0 {
		cfg.SubmitDeadline = 120 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 2 * time.Second
	}
	return cfg
}

// Result is the outcome of one run.
type Result struct {
	Clients int
	// Submits is the attempted submission count
	// (Clients * SubmitsPerClient); Admission.Submits is how many were
	// durably admitted.
	Submits   int
	Admission metrics.AdmissionStats
	Counters  controlplane.ServerCounters
	// Faults/PartitionFaults are the injector stats for the degraded and
	// partitioned fleet fractions (zero when those fractions are empty).
	Faults          faultnet.Stats
	PartitionFaults faultnet.Stats
	// Lost counts acked-or-attempted submits with no durable record
	// (client gave up, or ack without a store row); Duplicated counts
	// tokens admitted under more than one id or resolving to a different
	// id than the client's ack. Both must be zero for a healthy run.
	Lost       int
	Duplicated int
	// ResyncChecked counts snapshot entries cross-checked against client
	// acks through the v2 resync exchange after the run.
	ResyncChecked int
	// Slots counts the controller slots that ran during the load (zero
	// without TickEvery).
	Slots   int
	Elapsed time.Duration
}

// clientOutcome is one client's tally, merged after the fleet joins.
type clientOutcome struct {
	acked     map[string]int
	latencies []float64
	overloads int
	failed    int
}

// Run executes one load-generation run and audits the result.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	nw := topology.Internet2(8)
	ctrl, err := controlplane.NewServer(context.Background(), nil,
		controlplane.WithCoreConfig(core.Config{
			Net: nw, Policy: transfer.SJF, Seed: cfg.Seed, MaxIterations: 20,
		}),
		controlplane.WithSlotSeconds(cfg.SlotSeconds),
		controlplane.WithShards(cfg.Shards),
		controlplane.WithQueueDepth(cfg.QueueDepth),
		controlplane.WithMaxClients(cfg.MaxClients),
		controlplane.WithWriteTimeout(cfg.WriteTimeout),
	)
	if err != nil {
		return nil, err
	}
	defer ctrl.Close()
	lis := NewMemListener()
	go ctrl.Serve(lis)

	// Fleet assignment: the first PartitionFrac of clients dial through
	// the partition injector, the next FaultFrac through the degraded
	// one, the rest clean. Deterministic in the client index.
	nPart := int(cfg.PartitionFrac * float64(cfg.Clients))
	nFault := int(cfg.FaultFrac * float64(cfg.Clients))
	var partInj, faultInj *faultnet.Injector
	if nPart > 0 {
		partInj = faultnet.New(faultnet.Config{Seed: cfg.Seed + 1})
	}
	if nFault > 0 {
		fc := cfg.Fault
		fc.Seed = cfg.Seed + 2
		faultInj = faultnet.New(fc)
	}
	dialFor := func(i int) func(context.Context, string) (net.Conn, error) {
		switch {
		case i < nPart:
			return partInj.DialerFrom(lis.Dial)
		case i < nPart+nFault:
			return faultInj.DialerFrom(lis.Dial)
		default:
			return lis.Dial
		}
	}

	runDone := make(chan struct{})
	defer close(runDone)
	if partInj != nil && cfg.PartitionFor > 0 {
		sever := func() {
			partInj.Partition(true)
			go func() {
				time.Sleep(cfg.PartitionFor)
				partInj.Partition(false)
			}()
		}
		if cfg.PartitionAfter > 0 {
			go func() {
				select {
				case <-time.After(cfg.PartitionAfter):
					sever()
				case <-runDone:
				}
			}()
		} else {
			// Sever before the first dial: the partitioned fraction is
			// guaranteed to start life refused and converge via retries.
			sever()
		}
	}
	if cfg.TickEvery > 0 {
		go func() {
			tick := time.NewTicker(cfg.TickEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					ctrl.Tick()
				case <-runDone:
					return
				}
			}
		}()
	}

	outcomes := make([]clientOutcome, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runClient(i, i%nw.NumSites(), nw.NumSites(), dialFor(i), cfg, &outcomes[i])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	slots := ctrl.Slot()

	// Merge the fleet's tallies.
	acked := map[string]int{}
	var latencies []float64
	overloads, failed := 0, 0
	for i := range outcomes {
		for tok, id := range outcomes[i].acked {
			acked[tok] = id
		}
		latencies = append(latencies, outcomes[i].latencies...)
		overloads += outcomes[i].overloads
		failed += outcomes[i].failed
	}

	res := &Result{
		Clients:   cfg.Clients,
		Submits:   cfg.Clients * cfg.SubmitsPerClient,
		Admission: metrics.ComputeAdmission(latencies, overloads, elapsed.Seconds()),
		Counters:  ctrl.Counters(),
		Slots:     slots,
		Elapsed:   elapsed,
	}
	if faultInj != nil {
		res.Faults = faultInj.Stats()
	}
	if partInj != nil {
		res.PartitionFaults = partInj.Stats()
	}

	// Audit the durable store: every acked token must map to exactly the
	// acked id, and no token may have been admitted twice.
	byToken := map[string]map[int]bool{}
	for _, v := range ctrl.Store().SnapshotPrefix("transfer/") {
		rec, err := controlplane.DecodeTransferRecord(v)
		if err != nil {
			return nil, err
		}
		if rec.Token == "" {
			continue
		}
		if byToken[rec.Token] == nil {
			byToken[rec.Token] = map[int]bool{}
		}
		byToken[rec.Token][rec.ID] = true
	}
	for tok, ids := range byToken {
		if len(ids) > 1 {
			res.Duplicated++
		} else if id, ok := acked[tok]; ok && !ids[id] {
			res.Duplicated++
		}
		_ = tok
	}
	for tok := range acked {
		if len(byToken[tok]) == 0 {
			res.Lost++
		}
	}
	res.Lost += failed

	// Exercise the v2 resync path end to end: a fresh connection per
	// sampled site replays that site's pending set; every entry must
	// agree with the client-side acks.
	checked, mismatched, err := resyncAudit(lis.Dial, nw.NumSites(), cfg, acked)
	if err != nil {
		return nil, err
	}
	res.ResyncChecked = checked
	res.Duplicated += mismatched
	res.Counters = ctrl.Counters() // refresh: includes the audit resyncs
	return res, nil
}

// runClient submits the client's quota sequentially, retrying each
// token until acked or past the submit deadline. The connection stays
// up across submits, so the fleet size is also the peak concurrent
// connection count.
func runClient(i, site, nsites int, dial func(context.Context, string) (net.Conn, error), cfg Config, out *clientOutcome) {
	out.acked = map[string]int{}
	lc := &liteClient{
		site:  site,
		dial:  dial,
		rpcTO: cfg.RPCTimeout,
		rng:   rand.New(rand.NewSource(cfg.Seed*7919 + int64(i))),
	}
	defer lc.close()
	for s := 0; s < cfg.SubmitsPerClient; s++ {
		token := fmt.Sprintf("lg-%d-%d", i, s)
		req := controlplane.WireRequest{
			Src:       site,
			Dst:       (site + 1 + lc.rng.Intn(nsites-1)) % nsites,
			SizeGbits: 1 + lc.rng.Float64()*99,
		}
		start := time.Now()
		id, overloads, err := lc.submit(req, token, start.Add(cfg.SubmitDeadline))
		out.overloads += overloads
		if err != nil {
			out.failed++
			continue
		}
		out.acked[token] = id
		out.latencies = append(out.latencies, time.Since(start).Seconds())
	}
}

// resyncAudit cross-checks up to three sites' resync snapshots against
// the fleet's acks: each snapshot entry carrying one of our tokens must
// report the id the submitting client was acked.
func resyncAudit(dial func(context.Context, string) (net.Conn, error), nsites int, cfg Config, acked map[string]int) (checked, mismatched int, err error) {
	sample := nsites
	if sample > 3 {
		sample = 3
	}
	for site := 0; site < sample; site++ {
		lc := &liteClient{
			site:  site,
			dial:  dial,
			rpcTO: cfg.RPCTimeout,
			rng:   rand.New(rand.NewSource(cfg.Seed * 104729)),
		}
		snap, rerr := lc.resync(time.Now().Add(cfg.RPCTimeout))
		lc.close()
		if rerr != nil {
			return checked, mismatched, fmt.Errorf("loadgen: resync audit site %d: %w", site, rerr)
		}
		for _, p := range snap.Pending {
			if p.Token == "" {
				continue
			}
			if id, ok := acked[p.Token]; ok {
				if id != p.ID {
					mismatched++
				}
				checked++
			}
		}
	}
	return checked, mismatched, nil
}
