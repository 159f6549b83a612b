package controlplane

import (
	"context"
	"runtime"
	"testing"
	"time"

	"owan/internal/core"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/update"
)

// settledGoroutines polls until the goroutine count stops exceeding want (an
// exiting goroutine is counted until the scheduler has reaped it) and
// returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestFailFiberOwnsItsCore: every FailFiber swaps the controller core for
// one derived from it and must stop the evaluator pool of the core it
// replaced; Close must stop the last one. With a two-worker pool that is two
// goroutines leaked per cut if either is forgotten.
func TestFailFiberOwnsItsCore(t *testing.T) {
	before := runtime.NumGoroutine()
	net := topology.ISP(40, 10, 1)
	ctrl, err := NewServer(context.Background(), nil,
		WithCoreConfig(core.Config{Net: net, Policy: transfer.SJF, Seed: 1, MaxIterations: 20, Workers: 2}),
		WithSlotSeconds(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	// One transfer that stays live through every cut, so that every Tick
	// searches: an idle slot runs no search.
	if _, err := ctrl.Submit(WireRequest{Src: 0, Dst: 1, SizeGbits: 1e12}); err != nil {
		t.Fatal(err)
	}
	idle := runtime.NumGoroutine() // the admission workers, no pool yet
	ctrl.Tick()                    // the first search starts the pool
	running := runtime.NumGoroutine()
	if running <= idle {
		t.Fatalf("no evaluator pool to leak: %d goroutines with the server idle, %d with it ticking", idle, running)
	}
	for i := 0; i < 20; i++ {
		id := net.Fibers[i*3].ID
		if err := ctrl.FailFiber(id); err != nil {
			t.Fatalf("FailFiber(%d): %v", id, err)
		}
		if err := ctrl.FailFiber(id); err != nil {
			t.Fatalf("repeated FailFiber(%d) should be idempotent: %v", id, err)
		}
		ctrl.Tick()
	}
	if ctrl.Completed() != 0 || ctrl.LastUpdatePlan() == (update.SlotStat{}) {
		t.Fatal("the transfer did not stay live through the cuts")
	}
	if got := len(ctrl.Net.Fibers); got != len(net.Fibers)-20 {
		t.Errorf("controller network has %d fibers after 20 cuts of %d", got, len(net.Fibers))
	}
	if err := ctrl.FailFiber(1 << 20); err == nil {
		t.Error("FailFiber of an unknown fiber succeeded")
	}
	if n := settledGoroutines(running); n != running {
		t.Errorf("%d goroutines after 20 FailFiber+Tick cycles, %d before them", n, running)
	}
	ctrl.Close()
	if n := settledGoroutines(before); n > before {
		t.Errorf("%d goroutines after Close, %d before the server existed", n, before)
	}
}
