// Command owan-sim runs a single simulation: one topology, one traffic
// engineering approach, one load point, and prints the summary metrics the
// paper reports (average and 95th-percentile completion time, makespan,
// and — for deadline workloads — the deadline-met percentages).
//
// Usage:
//
//	owan-sim -topo internet2 -approach owan -load 1.0
//	owan-sim -topo interdc -approach amoeba -load 1.0 -sigma 20
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"owan/internal/core"
	"owan/internal/experiments"
	"owan/internal/metrics"
	"owan/internal/prof"
	"owan/internal/transfer"
	"owan/internal/workload"
)

func main() {
	var (
		topo     = flag.String("topo", "internet2", "topology: internet2|isp|interdc")
		approach = flag.String("approach", "owan", "approach: owan|maxflow|maxminfract|swan|tempus|amoeba|rate-only|rate-routing|greedy-separate")
		load     = flag.Float64("load", 1.0, "traffic load factor λ")
		sigma    = flag.Float64("sigma", 0, "deadline factor σ (0 disables deadlines)")
		seed     = flag.Int64("seed", 1, "workload/search seed")
		full     = flag.Bool("full", false, "paper-scale parameters")
		traceIn  = flag.String("trace", "", "replay transfer requests from a JSON trace file")
		traceOut = flag.String("save-trace", "", "write the generated workload to a JSON trace file")
		search   = core.SearchFlags(flag.CommandLine)
		pf       = prof.Register()
	)
	flag.Parse()
	stopProf, err := pf.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	sc := experiments.QuickScale()
	if *full {
		sc = experiments.FullScale()
	}
	sc.Search = search
	var reqs []transfer.Request
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		reqs = tr.Requests
	} else if *traceOut != "" {
		net, err := experiments.BuildTopology(experiments.TopoKind(*topo), sc, *seed)
		if err != nil {
			log.Fatal(err)
		}
		reqs, err = experiments.Workload(experiments.TopoKind(*topo), net, sc, *load, *sigma, *seed+100)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		desc := fmt.Sprintf("owan-sim -topo %s -load %g -sigma %g -seed %d", *topo, *load, *sigma, *seed)
		if err := workload.WriteTrace(f, &workload.Trace{Description: desc, Requests: reqs}); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %d requests to %s\n", len(reqs), *traceOut)
	}
	res, err := experiments.Run(experiments.RunSpec{
		Topo:           experiments.TopoKind(*topo),
		Approach:       *approach,
		Load:           *load,
		DeadlineFactor: *sigma,
		Seed:           *seed,
		Scale:          sc,
		Requests:       reqs,
	})
	if err != nil {
		log.Fatal(err)
	}

	ct := metrics.CompletionTimes(res.Transfers, experiments.SlotSeconds)
	done := len(res.Completed())
	fmt.Printf("approach            %s\n", res.Name)
	fmt.Printf("topology            %s (load %.2g, sigma %.2g, seed %d)\n", *topo, *load, *sigma, *seed)
	fmt.Printf("transfers           %d submitted, %d completed\n", len(res.Transfers), done)
	fmt.Printf("slots simulated     %d x %.0fs\n", res.Slots, experiments.SlotSeconds)
	fmt.Printf("avg completion      %.1f s\n", metrics.Mean(ct))
	fmt.Printf("p95 completion      %.1f s\n", metrics.Percentile(ct, 95))
	if math.IsInf(res.MakespanSeconds, 1) {
		fmt.Printf("makespan            (incomplete)\n")
	} else {
		fmt.Printf("makespan            %.1f s\n", res.MakespanSeconds)
	}
	if *sigma > 0 {
		d := metrics.Deadlines(res.Transfers, experiments.SlotSeconds)
		fmt.Printf("deadlines met       %.1f%% of transfers\n", d.TransfersMetPct)
		fmt.Printf("bytes by deadline   %.1f%%\n", d.BytesMetPct)
	}
	churn := 0
	for _, c := range res.Churn {
		churn += c
	}
	fmt.Printf("optical churn       %d circuit changes across run\n", churn)
	if done < len(res.Transfers) {
		fmt.Fprintln(os.Stderr, "warning: some transfers did not complete within the slot budget")
		stopProf() // deferred calls do not run across os.Exit
		os.Exit(1)
	}
}
