// Command owan-controller runs the centralized Owan controller: it listens
// for client connections (see cmd/owan-client), accepts transfer requests,
// and every slot computes the joint optical/network configuration and
// pushes rate allocations back to the submitting clients.
//
// Usage:
//
//	owan-controller -listen 127.0.0.1:9200 -topo internet2 -slot 5s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"time"

	"owan/internal/controlplane"
	"owan/internal/core"
	"owan/internal/metrics"
	"owan/internal/topology"
	"owan/internal/transfer"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:9200", "listen address")
		kind      = flag.String("topo", "internet2", "topology: internet2|isp|interdc")
		ports     = flag.Int("ports", 10, "router ports per site")
		slot      = flag.Duration("slot", 5*time.Second, "slot duration (paper: 5m; demos use seconds)")
		seed      = flag.Int64("seed", 1, "annealing seed")
		search    = core.SearchFlags(flag.CommandLine)
		heartbeat = flag.Duration("heartbeat", controlplane.DefaultReadTimeout, "declare a client dead after this much silence (clients ping every 10s by default)")
		wtimeout  = flag.Duration("write-timeout", controlplane.DefaultWriteTimeout, "per-client write deadline for rate pushes; a slower client is dropped and marked for resync")
		maxcli    = flag.Int("max-clients", 0, "registered-client cap; excess hellos get a typed overloaded error (0 = unlimited)")
		shards    = flag.Int("shards", controlplane.DefaultShards, "admission-queue shards (submissions hash by owner site)")
		qdepth    = flag.Int("queue-depth", controlplane.DefaultQueueDepth, "per-shard admission queue depth; a full queue answers overloaded with a retry-after hint")
	)
	flag.Parse()

	var nw *topology.Network
	switch *kind {
	case "internet2":
		nw = topology.Internet2(*ports)
	case "isp":
		nw = topology.ISP(40, *ports, *seed)
	case "interdc":
		nw = topology.InterDC(25, 5, *ports, *seed)
	default:
		log.Fatalf("unknown topology %q", *kind)
	}

	// Canonical defaults + flag overlay; NewServer validates, so a
	// nonsense knob (negative workers, ...) dies here with a clear error.
	cfg := core.DefaultConfig(nw)
	cfg.Policy = transfer.SJF
	cfg.Seed = *seed
	search(&cfg)
	ctrl, err := controlplane.NewServer(context.Background(), nil,
		controlplane.WithCoreConfig(cfg),
		controlplane.WithSlotSeconds(slot.Seconds()),
		controlplane.WithReadTimeout(*heartbeat),
		controlplane.WithWriteTimeout(*wtimeout),
		controlplane.WithMaxClients(*maxcli),
		controlplane.WithShards(*shards),
		controlplane.WithQueueDepth(*qdepth),
	)
	if err != nil {
		log.Fatal(err)
	}
	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("owan-controller: %s, %d sites, slot %s, listening on %s\n",
		nw.Name, nw.NumSites(), slot, lis.Addr())

	go ctrl.Serve(lis)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	tick := time.NewTicker(*slot)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			st := ctrl.Tick()
			up := ctrl.LastUpdatePlan()
			eff := metrics.ComputeSearchEfficiency(st.CacheHits, st.CacheMisses, st.WorkerEvals)
			temper := ""
			if st.Replicas > 1 || st.WarmStarted {
				teff := metrics.ComputeTemperingEfficiency(st.ExchangeAttempts, st.Exchanges, st.Iterations, st.Replicas, cfg.MaxIterations)
				mode := "cold"
				if st.WarmStarted {
					mode = "warm"
				}
				if st.EarlyExit {
					mode += "+converged"
				}
				temper = fmt.Sprintf(", %dx replicas (%s, exch %.0f%%, budget %.0f%%)",
					st.Replicas, mode, 100*teff.ExchangeRate, 100*teff.BudgetUsed)
			}
			log.Printf("slot %d: energy %.1f Gbps (from %.1f), %d SA iterations (%d evals, cache %.0f%%, pool balance %.2f)%s, churn %d, update %d ops/%d rounds, completed %d",
				ctrl.Slot()-1, st.BestEnergy, st.InitialEnergy, st.Iterations,
				eff.Evaluations, 100*eff.HitRate, eff.WorkerBalance, temper,
				st.Churn, up.Ops, up.Rounds, ctrl.Completed())
		case <-sig:
			fmt.Println("\nshutting down")
			ctrl.Close()
			return
		}
	}
}
