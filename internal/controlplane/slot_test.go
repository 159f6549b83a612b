package controlplane

import (
	"bytes"
	"context"
	"fmt"
	"math"
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
	// A slow cooling rate makes the search long: rung 0 needs
	// ln(EpsilonFrac)/ln(alpha) ≈ 69 k iterations to cool to ε, and the
	// iteration cap is out of reach, so the schedule alone ends it.
	const alpha = 0.9999
	schedule := int(math.Ceil(math.Log(core.EpsilonFrac) / math.Log(alpha)))
	ctrl, err := NewServer(context.Background(), nil,
		WithCoreConfig(core.Config{
			Net: topology.Internet2(8), Policy: transfer.SJF, Seed: 1,
			Alpha: alpha, MaxIterations: 1 << 30,
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
	var tickStats core.SearchStats
	go func() {
		tickStats = ctrl.Tick()
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
	if tickStats.Iterations != schedule {
		t.Fatalf("search ran %d iterations, want its whole %d-iteration schedule", tickStats.Iterations, schedule)
	}
	// The submit and status landed early in the search, not at its tail: the
	// Tick ran at least as long again after they were answered.
	if d, answered := end.Sub(tickStart), statusAt.Sub(tickStart); d < 2*answered {
		t.Fatalf("Tick took %v, want at least twice the %v it took to answer the submit and status", d, answered)
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

	// One transfer that outlives the test, so that every Tick searches and
	// plans: an idle slot runs neither.
	if _, err := ctrl.Submit(WireRequest{Src: 0, Dst: 1, SizeGbits: 1e12}); err != nil {
		t.Fatal(err)
	}
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
	if ctrl.planner.Network() != ctrl.Net {
		t.Error("the update planner is not on the controller's reduced network")
	}
	if !ctrl.LastUpdatePlan().Planned {
		t.Error("the last slot, after the last cut, planned no update")
	} else {
		for pair, fibers := range ctrl.planner.Previous().CircuitFibers {
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
// recover to the same controller. A fiber cut made mid-run is recovered
// too: the successor plans on the reduced plant, and reporting the same
// cut to it again is a no-op.
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
	initial := topology.InitialTopology(cfg.Net).Key()
	cut := cfg.Net.Fibers[3].ID
	for slot := 0; slot < 30; slot++ {
		if slot == 10 {
			if err := ctrl.FailFiber(cut); err != nil {
				t.Fatal(err)
			}
		}
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
		topo := ctrl.topo.Key()
		ctrl.Tick()
		// The committed topology is one more record, written when it moved.
		metas := 1
		if ctrl.topo.Key() != topo {
			metas++
		}
		if have, ok := changed.Get(topoKey); !ok && ctrl.topo.Key() != initial || ok && string(have) != ctrl.topo.Key() {
			t.Fatalf("slot %d: store holds topology record %v (present %v), not the committed topology", slot, have, ok)
		}
		moved := 0
		ctrl.mu.Lock()
		for id, rem := range before {
			if tr, live := ctrl.transfers[id]; !live || tr.Remaining != rem {
				moved++
			}
		}
		ctrl.mu.Unlock()
		unserved += len(before) - moved
		if got := int(changed.Seq() - seq); got != moved+metas {
			t.Fatalf("slot %d: %d log entries for %d transfers whose state changed (of %d live), want %d", slot, got, moved, len(before), moved+metas)
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
	if len(ctrl.Net.Fibers) != len(cfg.Net.Fibers)-1 {
		t.Fatalf("running controller has %d fibers after one cut of %d", len(ctrl.Net.Fibers), len(cfg.Net.Fibers))
	}
	for _, c := range []*Controller{a, b} {
		if !reflect.DeepEqual(c.Net.Fibers, ctrl.Net.Fibers) {
			t.Errorf("recovered controller has %d fibers, the one that wrote the store %d: the cut of fiber %d was lost",
				len(c.Net.Fibers), len(ctrl.Net.Fibers), cut)
		}
		net := c.Net
		if err := c.FailFiber(cut); err != nil || c.Net != net {
			t.Errorf("repeating the recovered cut of fiber %d: err %v, network replaced %v", cut, err, c.Net != net)
		}
	}
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

// TestSuccessorResumesSlotState: a successor taking over the store resumes
// the slot where its predecessor left it, a fiber cut included, and not only
// the transfers — the committed topology, which it anneals, measures churn
// and plans its first update from, and every live transfer's starvation
// clock (LastServed), so that its first slot promotes no transfer as
// starved that its predecessor would not have.
func TestSuccessorResumesSlotState(t *testing.T) {
	cfg := core.Config{Net: topology.ISP(40, 10, 1), Policy: transfer.SJF, StarveSlots: core.DefaultStarveSlots, Seed: 1, MaxIterations: 20}
	st := store.New()
	ctrl, err := NewServer(context.Background(), st, WithCoreConfig(cfg), WithSlotSeconds(10))
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 12; slot++ {
		if slot == 5 {
			if err := ctrl.FailFiber(cfg.Net.Fibers[4].ID); err != nil {
				t.Fatal(err)
			}
		}
		// Contending long transfers out of two sites, so that some are
		// served now and then and some not at all.
		for k := 0; k < 3; k++ {
			if _, err := ctrl.Submit(WireRequest{Src: k % 2, Dst: 2 + (slot+k)%20, SizeGbits: 20000}); err != nil {
				t.Fatal(err)
			}
		}
		ctrl.Tick()
	}
	ctrl.Close()
	succ, err := NewServer(context.Background(), st, WithCoreConfig(cfg), WithSlotSeconds(10))
	if err != nil {
		t.Fatal(err)
	}
	defer succ.Close()

	if ctrl.topo.Key() == topology.InitialTopology(cfg.Net).Key() {
		t.Fatal("twelve slots left the initial topology in place: nothing to resume")
	}
	if succ.topo.Key() != ctrl.topo.Key() {
		t.Error("the successor resumes from another topology than the one its predecessor committed")
	}
	if got, want := succ.planner.Previous().Circuits, ctrl.planner.Previous().Circuits; !reflect.DeepEqual(got, want) {
		t.Errorf("the successor's first update plans from circuits %v, its predecessor's next would from %v", got, want)
	}
	if len(succ.transfers) != len(ctrl.transfers) {
		t.Fatalf("successor holds %d live transfers, its predecessor %d", len(succ.transfers), len(ctrl.transfers))
	}
	served, starved := 0, 0
	for id, want := range ctrl.transfers {
		got := succ.transfers[id]
		if got == nil || got.LastServed != want.LastServed {
			t.Fatalf("transfer %d: successor holds %+v, predecessor %+v", id, got, want)
		}
		if want.LastServed >= want.Arrival {
			served++
		}
		if ctrl.slot-want.LastServed > cfg.StarveSlots {
			starved++
		}
	}
	if served == 0 || served == len(ctrl.transfers) || starved == len(ctrl.transfers) {
		t.Fatalf("%d of %d live transfers served, %d starved: want some of each kind", served, len(ctrl.transfers), starved)
	}

	// A topology record that does not decode, or that is for another
	// network, fails the takeover.
	for _, bad := range [][]byte{{0xff}, topology.InitialTopology(topology.Internet2(8)).AppendKey(nil)} {
		st.Put(topoKey, bad)
		if c, err := NewServer(context.Background(), st, WithCoreConfig(cfg), WithSlotSeconds(10)); err == nil {
			c.Close()
			t.Errorf("a successor recovered from the topology record % x", bad)
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
