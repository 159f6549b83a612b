// Failure handling demo (§3.4): runs the full controller/client stack over
// loopback TCP, injects a fiber failure mid-run, then kills the controller
// and promotes a replica of its store — showing that transfers survive
// both events, the same client reconnects to the replacement controller on
// its own, and the schedule reconverges incrementally.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"owan/internal/controlplane"
	"owan/internal/core"
	"owan/internal/store"
	"owan/internal/topology"
	"owan/internal/transfer"
)

func main() {
	nw := topology.Internet2(8)
	st := store.New()
	cfg := core.DefaultConfig(nw)
	cfg.Policy = transfer.SJF
	cfg.Seed = 3
	cfg.MaxIterations = 300
	ctrl, err := controlplane.NewServer(context.Background(), st,
		controlplane.WithCoreConfig(cfg),
		controlplane.WithSlotSeconds(10),
	)
	if err != nil {
		log.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := lis.Addr().String()
	go ctrl.Serve(lis)
	fmt.Printf("controller up on %s (Internet2, 10 s slots)\n", addr)

	ctx := context.Background()
	cl, err := controlplane.Dial(ctx, addr,
		controlplane.WithSite(0),
		controlplane.WithHeartbeatInterval(200*time.Millisecond),
		controlplane.WithBackoff(50*time.Millisecond, 500*time.Millisecond),
		controlplane.WithOnDisconnect(func(err error) {
			fmt.Printf("  client: connection lost (%v), reconnecting with backoff...\n", err)
		}),
		controlplane.WithOnRates(func(rates []controlplane.WireRate) {
			for _, r := range rates {
				fmt.Printf("  rate push: transfer %d -> %.1f Gbps via %v\n", r.TransferID, r.RateGbps, r.Path)
			}
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// A cross-country transfer big enough to span several slots.
	id, err := cl.Submit(ctx, controlplane.WireRequest{Src: 0, Dst: 8, SizeGbits: 2000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted transfer %d: SEAT -> NEWY, 2000 Gbit\n\n", id)

	fmt.Println("--- two normal slots ---")
	ctrl.Tick()
	ctrl.Tick()
	if p := ctrl.LastUpdatePlan(); p.Planned && !p.Err {
		fmt.Printf("consistent update: %d ops in %d rounds (%.1f s rollout, %d detours)\n",
			p.Ops, p.Rounds, p.Seconds, p.Detours)
	}
	time.Sleep(50 * time.Millisecond) // let rate pushes print

	fmt.Println("\n--- fiber failure: WASH-NEWY (id 11) ---")
	if err := cl.ReportFiberFailure(ctx, 11); err != nil {
		log.Fatal(err)
	}
	ctrl.Tick()
	time.Sleep(50 * time.Millisecond)

	fmt.Println("\n--- controller crash; promoting replica on the same address ---")
	ctrl.Close()
	replica := store.New()
	if err := store.Sync(st, replica); err != nil {
		log.Fatal(err)
	}
	cfg2 := core.DefaultConfig(topology.Internet2(8))
	cfg2.Policy = transfer.SJF
	cfg2.Seed = 4
	cfg2.MaxIterations = 300
	ctrl2, err := controlplane.NewServer(context.Background(), replica,
		controlplane.WithCoreConfig(cfg2),
		controlplane.WithSlotSeconds(10),
	)
	if err != nil {
		log.Fatal(err)
	}
	// Rebind the old address; the client notices the dead connection via
	// its heartbeat and re-dials on its own — no new Dial call here.
	var lis2 net.Listener
	for i := 0; i < 100; i++ {
		if lis2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		log.Fatal(err)
	}
	go ctrl2.Serve(lis2)
	fmt.Printf("replacement controller resumes at slot %d with the transfer still live\n", ctrl2.Slot())

	for i := 0; i < 30 && ctrl2.Completed() == 0; i++ {
		ctrl2.Tick()
		time.Sleep(20 * time.Millisecond)
	}
	if ctrl2.Completed() == 1 {
		fmt.Printf("transfer completed after failover at slot %d\n", ctrl2.Slot())
	} else {
		fmt.Println("transfer still in flight (unexpected)")
	}

	// The reconnected client still works against the new controller.
	st2, err := cl.Status(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("status via reconnected client: slot=%d completed=%d\n", st2.Slot, st2.Completed)
	ctrl2.Close()
}
