package controlplane

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"owan/internal/core"
	"owan/internal/store"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// TestSubmitDuringSearch: a submit that lands while a Tick is searching is
// acked at idle-path latency, not after the search, and joins the following
// slot with that slot as its arrival.
func TestSubmitDuringSearch(t *testing.T) {
	const budget = 500 * time.Millisecond
	ctrl, err := NewServer(context.Background(), nil,
		WithCoreConfig(core.Config{
			Net: topology.Internet2(8), Policy: transfer.SJF, Seed: 1,
			// The search reheats and runs to the wall-clock deadline.
			TimeBudget: budget, MaxIterations: 1 << 30,
		}),
		WithSlotSeconds(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(context.Background(), serve(t, ctrl), WithSite(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 4; i++ {
		if _, err := cl.Submit(context.Background(), WireRequest{Src: i, Dst: i + 4, SizeGbits: 1e6}); err != nil {
			t.Fatal(err)
		}
	}

	slot := ctrl.Slot()
	tickStart := time.Now()
	tickEnd := make(chan time.Time, 1)
	go func() {
		ctrl.Tick()
		tickEnd <- time.Now()
	}()
	// The Tick is searching once its snapshot phase has moved admitSlot on.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		ctrl.mu.Lock()
		searching := ctrl.admitSlot == slot+1
		ctrl.mu.Unlock()
		if searching {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Tick never reached its search phase")
		}
	}
	time.Sleep(50 * time.Millisecond)

	t0 := time.Now()
	id, err := cl.Submit(context.Background(), WireRequest{Src: 0, Dst: 1, SizeGbits: 5, DeadlineSlots: 3})
	acked := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Status(context.Background()); err != nil {
		t.Fatal(err)
	}
	statusAt := time.Now()
	if d := acked.Sub(t0); d >= 50*time.Millisecond {
		t.Errorf("submit during a search acked in %v, want < 50ms", d)
	}
	if d := statusAt.Sub(acked); d >= 50*time.Millisecond {
		t.Errorf("status during a search answered in %v, want < 50ms", d)
	}
	ctrl.mu.Lock()
	tr := ctrl.transfers[id]
	ctrl.mu.Unlock()
	if tr == nil {
		t.Fatalf("transfer %d not live after its ack", id)
	}
	if tr.Arrival != slot+1 || tr.Deadline != slot+1+3 {
		t.Errorf("mid-search submit: arrival %d deadline %d, want %d and %d", tr.Arrival, tr.Deadline, slot+1, slot+4)
	}

	end := <-tickEnd
	if !end.After(statusAt) {
		t.Fatalf("the Tick ended before the submit and status were answered: nothing was measured")
	}
	if d := end.Sub(tickStart); d < budget*8/10 {
		t.Fatalf("Tick took %v, the search did not run to its %v budget", d, budget)
	}
	ctrl.mu.Lock()
	remaining, lastServed := tr.Remaining, tr.LastServed
	ctrl.mu.Unlock()
	if got := ctrl.Slot(); got != slot+1 {
		t.Fatalf("slot after the Tick = %d, want %d", got, slot+1)
	}
	if remaining != 5 || lastServed != slot {
		t.Errorf("transfer admitted mid-search was scheduled in slot %d (remaining %v, last served %d)", slot, remaining, lastServed)
	}

	ctrl.Tick()
	ctrl.mu.Lock()
	lastServed = tr.LastServed
	ctrl.mu.Unlock()
	if lastServed != slot+1 {
		t.Errorf("transfer first served in slot %d, want the slot after its admission, %d", lastServed, slot+1)
	}
}

// TestSlotOpsConcurrent runs Tick, wire submits, status reads and fiber cuts
// against each other under the race detector and ends in Close with the
// ticker still running: every slot-level operation serializes on slotMu,
// none of them with admission, no evaluator pool outlives Close, and the
// slot after the last cut ran on the reduced network.
func TestSlotOpsConcurrent(t *testing.T) {
	before := runtime.NumGoroutine()
	nw := topology.ISP(40, 10, 1)
	ctrl, err := NewServer(context.Background(), nil,
		WithCoreConfig(core.Config{Net: nw, Policy: transfer.SJF, Seed: 1, MaxIterations: 20, Workers: 2}),
		WithSlotSeconds(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		ctrl.Serve(lis)
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ticks, acks atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ctrl.Tick()
				ticks.Add(1)
			}
		}
	}()
	var clients []*Client
	for site := 0; site < 2; site++ {
		cl, err := Dial(context.Background(), lis.Addr().String(), WithSite(site),
			WithRPCTimeout(200*time.Millisecond), WithRetryMax(1))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once the controller closes under us.
				if _, err := cl.Submit(context.Background(), WireRequest{Src: site, Dst: 2 + k%30, SizeGbits: float64(50 + k%200)}); err == nil {
					acks.Add(1)
				} else {
					time.Sleep(time.Millisecond)
				}
				if k%4 == 0 {
					cl.Status(context.Background())
				}
			}
		}(site)
	}

	const cuts = 10
	cut := map[int]bool{}
	for i := 0; i < cuts; i++ {
		id := nw.Fibers[i*3].ID
		cut[id] = true
		if err := ctrl.FailFiber(id); err != nil {
			t.Fatalf("FailFiber(%d): %v", id, err)
		}
		// Let at least one slot run between cuts.
		for n := ticks.Load(); ticks.Load() == n; {
			time.Sleep(time.Millisecond)
		}
	}
	// A Tick may have been in flight when the last cut landed; the one
	// after it started on the reduced network.
	for n := ticks.Load(); ticks.Load() < n+2; {
		time.Sleep(time.Millisecond)
	}

	ctrl.Close() // ticker and submitters still running
	ctrl.slotMu.Lock()
	if ctrl.owan.Net() != ctrl.Net || len(ctrl.Net.Fibers) != len(nw.Fibers)-cuts {
		t.Errorf("controller network has %d fibers after %d cuts of %d", len(ctrl.Net.Fibers), cuts, len(nw.Fibers))
	}
	if ctrl.prevUpdate == nil {
		t.Error("no slot ran after the last cut")
	} else {
		for pair, fibers := range ctrl.prevUpdate.CircuitFibers {
			for _, fid := range fibers {
				if cut[fid] {
					t.Errorf("post-cut slot routed circuit %v over failed fiber %d", pair, fid)
				}
			}
		}
	}
	ctrl.slotMu.Unlock()
	if acks.Load() == 0 || ctrl.Slot() < cuts {
		t.Errorf("%d submits acked over %d slots: the load did not run", acks.Load(), ctrl.Slot())
	}
	// A Tick that loses the race with Close must not restart the pool.
	slot := ctrl.Slot()
	ctrl.Tick()
	if got := ctrl.Slot(); got != slot {
		t.Errorf("Tick after Close advanced the slot %d -> %d", slot, got)
	}

	close(stop)
	for _, cl := range clients {
		cl.Close()
	}
	wg.Wait()
	<-served
	if n := settledGoroutines(before); n > before {
		t.Errorf("%d goroutines after Close, %d before the server existed", n, before)
	}
}

// liveRecords marshals the record of every live transfer the way a
// controller that rewrote every active record each slot would.
func liveRecords(c *Controller) []store.KV {
	c.mu.Lock()
	defer c.mu.Unlock()
	var recs []persistedTransfer
	for _, t := range c.transfers {
		recs = append(recs, c.persistLocked(t))
	}
	return marshalRecords(recs...)
}

// TestRecoveryEquivalence: Tick writes only the records its slot changed.
// Every live transfer's full record must still equal what the store holds,
// so a store that was rewritten in full every slot and the changed-only one
// recover to the same controller.
func TestRecoveryEquivalence(t *testing.T) {
	cfg := core.Config{Net: topology.Internet2(8), Policy: transfer.SJF, Seed: 1, MaxIterations: 20}
	changed, full := store.New(), store.New()
	ctrl, err := NewServer(context.Background(), changed, WithCoreConfig(cfg), WithSlotSeconds(10))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	// mirror brings the write-everything store up to date: whatever the
	// controller wrote, plus a fresh record for every live transfer.
	mirror := func() {
		var kvs []store.KV
		for k, v := range changed.SnapshotPrefix("") {
			kvs = append(kvs, store.KV{Key: k, Value: v})
		}
		full.PutBatch(append(kvs, liveRecords(ctrl)...))
	}
	unserved := 0
	for slot := 0; slot < 30; slot++ {
		// Contending demand on one pair, so that some transfers go unserved,
		// plus short ones that finish.
		for k := 0; k < 6; k++ {
			r := WireRequest{Src: 0, Dst: 5, SizeGbits: 4000 + float64(100*k)}
			if k >= 4 {
				r = WireRequest{Src: k, Dst: (k + slot) % 4, SizeGbits: 20}
			}
			if _, err := ctrl.submit(r, k%3, fmt.Sprintf("tok-%d-%d", slot, k)); err != nil {
				t.Fatal(err)
			}
		}
		ctrl.mu.Lock()
		before := map[int]float64{}
		for id, tr := range ctrl.transfers {
			before[id] = tr.Remaining
		}
		ctrl.mu.Unlock()
		seq := changed.Seq()
		ctrl.Tick()
		moved := 0
		ctrl.mu.Lock()
		for id, rem := range before {
			if tr, live := ctrl.transfers[id]; !live || tr.Remaining != rem {
				moved++
			}
		}
		ctrl.mu.Unlock()
		unserved += len(before) - moved
		if got := int(changed.Seq() - seq); got != moved+1 {
			t.Fatalf("slot %d: %d log entries for %d transfers whose state changed (of %d live), want %d", slot, got, moved, len(before), moved+1)
		}
		for _, kv := range liveRecords(ctrl) {
			if have, _ := changed.Get(kv.Key); !bytes.Equal(have, kv.Value) {
				t.Fatalf("slot %d: store holds %s for %s, live state is %s", slot, have, kv.Key, kv.Value)
			}
		}
		mirror()
	}
	if unserved == 0 {
		t.Fatal("every live transfer was served in every slot: the changed-only path was not exercised")
	}

	recoverFrom := func(st *store.Store) *Controller {
		c, err := NewServer(context.Background(), st, WithCoreConfig(cfg), WithSlotSeconds(10))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	a, b := recoverFrom(changed), recoverFrom(full)
	if a.completed == 0 || len(a.transfers) == 0 {
		t.Fatalf("recovered %d live and %d completed transfers: want some of each", len(a.transfers), a.completed)
	}
	for _, tr := range a.transfers {
		if tr.Done {
			t.Errorf("finished transfer %d recovered as live state", tr.ID)
		}
	}
	if a.slot != ctrl.slot || a.completed != ctrl.completed || a.nextID != ctrl.nextID {
		t.Errorf("recovered slot %d completed %d next id %d, the controller that wrote the store had %d, %d, %d",
			a.slot, a.completed, a.nextID, ctrl.slot, ctrl.completed, ctrl.nextID)
	}
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"transfers", a.transfers, b.transfers},
		{"tokens", a.tokens, b.tokens},
		{"tokenByID", a.tokenByID, b.tokenByID},
		{"owners", a.owners, b.owners},
		{"slot", a.slot, b.slot},
		{"completed", a.completed, b.completed},
		{"nextID", a.nextID, b.nextID},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			t.Errorf("%s differ between the changed-only and the write-everything store:\n%v\n%v", f.name, f.a, f.b)
		}
	}
	// The running controller holds the same live state it would recover.
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"tokens", a.tokens, ctrl.tokens},
		{"tokenByID", a.tokenByID, ctrl.tokenByID},
		{"owners", a.owners, ctrl.owners},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			t.Errorf("%s: recovered %v, running controller holds %v", f.name, f.a, f.b)
		}
	}
}

// TestBoundedControllerState: finished transfers leave the controller's
// live state at the commit that finishes them, so a long run holds what is
// in flight and not what has ever been admitted; their tokens stay, so a
// replay still returns the original id.
func TestBoundedControllerState(t *testing.T) {
	ctrl, err := NewServer(context.Background(), nil,
		WithCoreConfig(core.Config{Net: topology.Internet2(8), Policy: transfer.SJF, Seed: 1, MaxIterations: 5}),
		WithSlotSeconds(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	const ticks, perTick = 200, 10
	ids := map[string]int{}
	for slot := 0; slot < ticks; slot++ {
		for k := 0; k < perTick; k++ {
			tok := fmt.Sprintf("tok-%d-%d", slot, k)
			id, err := ctrl.submit(WireRequest{Src: k % 9, Dst: (k + 1 + slot%7) % 9, SizeGbits: 30}, k%4, tok)
			if err != nil {
				t.Fatal(err)
			}
			ids[tok] = id
		}
		ctrl.Tick()
		ctrl.mu.Lock()
		live := len(ids) - ctrl.completed
		nT, nO, nB := len(ctrl.transfers), len(ctrl.owners), len(ctrl.tokenByID)
		ctrl.mu.Unlock()
		if nT != live || nO != live || nB != live {
			t.Fatalf("slot %d: %d transfers, %d owners, %d tokenByID entries for %d live transfers", slot, nT, nO, nB, live)
		}
	}
	for i := 0; ctrl.Completed() < len(ids); i++ {
		if i == 100 {
			t.Fatalf("%d of %d transfers completed", ctrl.Completed(), len(ids))
		}
		ctrl.Tick()
	}
	ctrl.mu.Lock()
	nT, nO, nB, nTok := len(ctrl.transfers), len(ctrl.owners), len(ctrl.tokenByID), len(ctrl.tokens)
	ctrl.mu.Unlock()
	if nT != 0 || nO != 0 || nB != 0 || nTok != len(ids) {
		t.Errorf("after every transfer finished: %d transfers, %d owners, %d tokenByID, %d tokens (want 0, 0, 0, %d)", nT, nO, nB, nTok, len(ids))
	}
	for _, tok := range []string{"tok-0-0", "tok-100-3", fmt.Sprintf("tok-%d-%d", ticks-1, perTick-1)} {
		id, err := ctrl.submit(WireRequest{Src: 0, Dst: 1, SizeGbits: 30}, 0, tok)
		if err != nil || id != ids[tok] {
			t.Errorf("replayed token %s of a finished transfer: got (%d, %v), want id %d", tok, id, err, ids[tok])
		}
	}
	if n := len(ctrl.Store().Keys("transfer/")); n != len(ids) {
		t.Errorf("store holds %d transfer records after the replays, want %d", n, len(ids))
	}
	// A successor recovers the same bounded state.
	next, err := NewServer(context.Background(), ctrl.Store(),
		WithCoreConfig(core.Config{Net: topology.Internet2(8), Policy: transfer.SJF, Seed: 2, MaxIterations: 5}),
		WithSlotSeconds(10))
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if len(next.transfers) != 0 || next.completed != len(ids) || len(next.tokens) != len(ids) {
		t.Errorf("successor recovered %d live, %d completed, %d tokens; want 0, %d, %d", len(next.transfers), next.completed, len(next.tokens), len(ids), len(ids))
	}
	if id, err := next.submit(WireRequest{Src: 0, Dst: 1, SizeGbits: 30}, 0, "tok-100-3"); err != nil || id != ids["tok-100-3"] {
		t.Errorf("successor replay of a finished transfer's token: got (%d, %v), want id %d", id, err, ids["tok-100-3"])
	}
}
