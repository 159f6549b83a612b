package controlplane

import (
	"context"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"owan/internal/core"
	"owan/internal/faultnet"
	"owan/internal/store"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// faultSeeds is the fixed seed matrix run by `make faults` and CI. The
// FAULTNET_SEED environment variable narrows the run to a single seed so
// the Makefile can shard the matrix.
func faultSeeds(t *testing.T) []int64 {
	if s := os.Getenv("FAULTNET_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad FAULTNET_SEED %q: %v", s, err)
		}
		return []int64{n}
	}
	return []int64{1, 2, 3}
}

// TestFaultInjectionEndToEnd is the headline resilience scenario: three
// clients on a lossy, delaying, corrupting network submit transfers while
// the controller is killed mid-slot and one client is partitioned away.
// A standby controller takes over from a synced store replica on the same
// address. Every submitted transfer must complete, with zero duplicate
// transfer ids, for each seed in the matrix.
func TestFaultInjectionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection scenario is slow")
	}
	for _, seed := range faultSeeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			runFaultScenario(t, seed)
		})
	}
}

func runFaultScenario(t *testing.T, seed int64) {
	newCtrl := func(st *store.Store) *Controller {
		ctrl, err := NewServer(context.Background(),
			st,
			WithCoreConfig(core.Config{
				Net: topology.Internet2(8), Policy: transfer.SJF, Seed: seed, MaxIterations: 40,
			}),
			WithSlotSeconds(10),
			WithReadTimeout(300*time.Millisecond),
			WithWriteTimeout(300*time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	st1 := store.New()
	ctrl1 := newCtrl(st1)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	go ctrl1.Serve(lis)

	// Background slot loop for a controller; returns a stop func that
	// blocks until the loop has fully exited.
	startTicker := func(c *Controller) func() {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(25 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					c.Tick()
				}
			}
		}()
		return func() { close(stop); <-done }
	}
	stop1 := startTicker(ctrl1)

	// Three clients, each behind its own deterministic fault injector:
	// delays, frame corruption in both directions, and occasional resets.
	const nClients = 3
	injs := make([]*faultnet.Injector, nClients)
	clients := make([]*Client, nClients)
	for i := 0; i < nClients; i++ {
		injs[i] = faultnet.New(faultnet.Config{
			Seed:            seed*100 + int64(i),
			DelayProb:       0.05,
			MaxDelay:        time.Millisecond,
			CorruptProb:     0.01,
			ReadCorruptProb: 0.01,
			ResetProb:       0.005,
		})
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cl, err := Dial(dctx, addr,
			WithSite(i),
			WithDialer(injs[i].Dialer()),
			WithHeartbeatInterval(40*time.Millisecond),
			WithBackoff(5*time.Millisecond, 50*time.Millisecond),
			WithJitterSeed(seed*10+int64(i)),
			WithOnDisconnect(func(error) {}), // expected; keep logs quiet
		)
		cancel()
		if err != nil {
			t.Fatalf("client %d dial: %v", i, err)
		}
		defer cl.Close()
		clients[i] = cl
	}

	var idMu sync.Mutex
	var ids []int
	submit := func(cl *Client, src, dst int, size float64) error {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		id, err := cl.Submit(ctx, WireRequest{Src: src, Dst: dst, SizeGbits: size})
		if err != nil {
			return err
		}
		idMu.Lock()
		ids = append(ids, id)
		idMu.Unlock()
		return nil
	}

	// Batch 1: every client submits through the lossy network while the
	// first controller is ticking.
	total := 0
	for i, cl := range clients {
		for j := 0; j < 2; j++ {
			if err := submit(cl, i, (i+3+j)%9, 150); err != nil {
				t.Fatalf("batch-1 submit (client %d): %v", i, err)
			}
			total++
		}
	}

	// Partition client 0 away, then have it keep submitting: these RPCs
	// must survive the partition AND the controller failover below,
	// retrying with idempotency tokens until they land on the successor.
	injs[0].Partition(true)
	var wg sync.WaitGroup
	submitErrs := make([]error, 2)
	for j := 0; j < 2; j++ {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			submitErrs[j] = submit(clients[0], 0, (5+j)%9, 150)
		}()
		total++
	}

	// Kill the primary mid-slot: the ticker is still racing Close, and
	// transfers are mid-flight.
	time.Sleep(80 * time.Millisecond)
	slotLow := ctrl1.Slot()
	ctrl1.Close()
	stop1()
	slotHigh := ctrl1.Slot()

	// Promote a standby from a synced replica of the store (§3.4) on the
	// same address.
	st2 := store.New()
	if err := store.Sync(st1, st2); err != nil {
		t.Fatal(err)
	}
	ctrl2 := newCtrl(st2)
	if got := ctrl2.Slot(); got < slotLow || got > slotHigh {
		t.Errorf("successor slot = %d, want within [%d, %d]", got, slotLow, slotHigh)
	}
	var lis2 net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		lis2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	go ctrl2.Serve(lis2)
	t.Cleanup(ctrl2.Close)
	stop2 := startTicker(ctrl2)
	defer stop2()

	// Heal the partition; client 0's pending submits now reach ctrl2.
	time.Sleep(100 * time.Millisecond)
	injs[0].Partition(false)
	wg.Wait()
	for j, err := range submitErrs {
		if err != nil {
			t.Fatalf("partitioned submit %d never landed: %v", j, err)
		}
	}

	// Batch 2 against the successor from the other (reconnecting) clients.
	for i := 1; i < nClients; i++ {
		if err := submit(clients[i], i, (i+4)%9, 150); err != nil {
			t.Fatalf("batch-2 submit (client %d): %v", i, err)
		}
		total++
	}

	// Zero duplicate transfer ids across clients, retries, and failover.
	idMu.Lock()
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate transfer id %d", id)
		}
		seen[id] = true
	}
	nIDs := len(ids)
	idMu.Unlock()
	if nIDs != total {
		t.Errorf("collected %d ids, want %d", nIDs, total)
	}

	// Every submitted transfer completes on the successor.
	deadline = time.Now().Add(30 * time.Second)
	for ctrl2.Completed() < total {
		if time.Now().After(deadline) {
			t.Fatalf("completed %d/%d transfers before deadline", ctrl2.Completed(), total)
		}
		time.Sleep(25 * time.Millisecond)
	}
	// The successor's store holds exactly the submitted transfers — a
	// duplicate created by a replayed submit would be one record more — and
	// every finished one has left its live state.
	if n := len(st2.Keys("transfer/")); n != total {
		t.Errorf("successor's store holds %d transfer records, want %d", n, total)
	}
	ctrl2.mu.Lock()
	live, done := len(ctrl2.transfers), ctrl2.completed
	ctrl2.mu.Unlock()
	if live != 0 || done != total {
		t.Errorf("successor holds %d live transfers with %d completed, want 0 and %d", live, done, total)
	}
}
