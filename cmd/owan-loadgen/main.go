// Command owan-loadgen drives the controller's sharded admission
// pipeline with a fleet of synthetic clients over an in-memory
// transport, optionally degraded by faultnet (drops, delays, byte
// corruption, partitions), and audits the run for exactly-once
// admission: every acked submit durable, no idempotency token admitted
// twice. It reports admission throughput, p50/p99 submit latency, and
// overload-rejection counts, and can append a results row and gate CI.
//
// Usage:
//
//	owan-loadgen -clients 10000 -submits 1 -seed 1
//	owan-loadgen -clients 10000 -drop 0.05 -fault-frac 0.5 \
//	    -partition-frac 0.2 -partition-ms 200 -label degraded \
//	    -out results/loadgen.dat
//	owan-loadgen -clients 1000 -check -max-p99 30s   # CI smoke gate
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"owan/internal/faultnet"
	"owan/internal/loadgen"
)

func main() {
	var (
		clients  = flag.Int("clients", 1000, "fleet size (concurrent clients)")
		submits  = flag.Int("submits", 1, "transfers each client submits")
		seed     = flag.Int64("seed", 1, "seed for request sizes, retry jitter, and fault schedules")
		shards   = flag.Int("shards", 0, "admission shards (0 = controller default)")
		qdepth   = flag.Int("queue-depth", 0, "per-shard queue depth (0 = controller default)")
		maxcli   = flag.Int("max-clients", 0, "controller client cap (0 = unlimited)")
		tick     = flag.Duration("tick", 0, "run controller slot ticks at this interval during the load (0 = admission alone)")
		slot     = flag.Float64("slot", 300, "modeled slot duration in seconds")
		rpcTO    = flag.Duration("rpc-timeout", 5*time.Second, "per-attempt client timeout")
		subDL    = flag.Duration("submit-deadline", 2*time.Minute, "per-submit overall patience before a client counts the submit lost")
		drop     = flag.Float64("drop", 0, "per-write drop probability for the degraded fraction")
		delay    = flag.Float64("delay", 0, "per-write delay probability for the degraded fraction")
		corrupt  = flag.Float64("corrupt", 0, "per-write corruption probability for the degraded fraction")
		ffrac    = flag.Float64("fault-frac", 0, "fraction of the fleet dialing through the fault injector")
		pfrac    = flag.Float64("partition-frac", 0, "fraction of the fleet severed by a partition")
		pafter   = flag.Duration("partition-after", 0, "partition onset after run start (0 = from the start)")
		pms      = flag.Duration("partition-ms", 200*time.Millisecond, "partition duration before healing")
		out      = flag.String("out", "", "append a results row to this .dat file")
		label    = flag.String("label", "run", "row label for -out")
		check    = flag.Bool("check", false, "exit nonzero unless zero lost/duplicated submits and p99 under -max-p99")
		maxP99   = flag.Duration("max-p99", 30*time.Second, "p99 submit-latency bound enforced by -check")
		quiet    = flag.Bool("quiet", false, "suppress the human-readable summary")
	)
	flag.Parse()

	cfg := loadgen.Config{
		Clients:          *clients,
		SubmitsPerClient: *submits,
		Seed:             *seed,
		Shards:           *shards,
		QueueDepth:       *qdepth,
		MaxClients:       *maxcli,
		SlotSeconds:      *slot,
		TickEvery:        *tick,
		RPCTimeout:       *rpcTO,
		SubmitDeadline:   *subDL,
		Fault: faultnet.Config{
			DropProb:    *drop,
			DelayProb:   *delay,
			CorruptProb: *corrupt,
		},
		FaultFrac:      *ffrac,
		PartitionFrac:  *pfrac,
		PartitionAfter: *pafter,
		PartitionFor:   *pms,
	}
	res, err := loadgen.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "owan-loadgen:", err)
		os.Exit(1)
	}

	if !*quiet {
		a := res.Admission
		fmt.Printf("owan-loadgen: %d clients x %d submits in %.2fs\n",
			res.Clients, *submits, res.Elapsed.Seconds())
		fmt.Printf("  admitted   %d (%.0f/s), lost %d, duplicated %d\n",
			a.Submits, a.ThroughputPerSec, res.Lost, res.Duplicated)
		fmt.Printf("  latency    p50 %.2fms  p99 %.2fms  mean %.2fms\n",
			a.P50LatencySec*1000, a.P99LatencySec*1000, a.MeanLatencySec*1000)
		fmt.Printf("  overloads  %d (rate %.4f), resyncs checked %d, slots run %d\n",
			a.Overloads, a.OverloadRate, res.ResyncChecked, res.Slots)
	}

	if *out != "" {
		if err := loadgen.AppendDat(*out, *label, res); err != nil {
			fmt.Fprintln(os.Stderr, "owan-loadgen:", err)
			os.Exit(1)
		}
	}

	if *check {
		fail := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "owan-loadgen: CHECK FAILED: "+format+"\n", args...)
			fmt.Fprintf(os.Stderr, "  server counters: %+v\n", res.Counters)
			fmt.Fprintf(os.Stderr, "  fault stats:     %+v\n", res.Faults)
			fmt.Fprintf(os.Stderr, "  partition stats: %+v\n", res.PartitionFaults)
			fmt.Fprintf(os.Stderr, "  admission:       %+v\n", res.Admission)
			os.Exit(1)
		}
		if res.Lost != 0 {
			fail("%d submits lost", res.Lost)
		}
		if res.Duplicated != 0 {
			fail("%d submits duplicated", res.Duplicated)
		}
		if want := res.Clients * *submits; res.Admission.Submits != want {
			fail("admitted %d of %d submits", res.Admission.Submits, want)
		}
		if *tick > 0 && res.Slots == 0 {
			fail("-tick %s but no slot ran during the %.2fs load", *tick, res.Elapsed.Seconds())
		}
		if p99 := time.Duration(res.Admission.P99LatencySec * float64(time.Second)); p99 > *maxP99 {
			fail("p99 submit latency %s exceeds bound %s", p99, *maxP99)
		}
		if !*quiet {
			fmt.Println("  check      PASS")
		}
	}
}
