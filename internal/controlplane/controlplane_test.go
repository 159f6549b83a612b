package controlplane

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"owan/internal/core"
	"owan/internal/store"
	"owan/internal/topology"
	"owan/internal/transfer"
)

func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{Type: MsgSubmit, Request: &WireRequest{Src: 1, Dst: 2, SizeGbits: 100}}
	if err := WriteMsg(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != MsgSubmit || out.Request == nil || out.Request.Dst != 2 {
		t.Errorf("round trip mismatch: %+v", out)
	}
}

func TestFramingRejectsHugeFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMsg(&buf); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestFramingMultipleMessages(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteMsg(&buf, &Message{Type: MsgSubmitAck, ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, err := ReadMsg(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if m.ID != i {
			t.Errorf("message %d has id %d", i, m.ID)
		}
	}
}

func newTestController(t *testing.T, st *store.Store) (*Controller, string) {
	t.Helper()
	net9 := topology.Internet2(8)
	ctrl, err := NewServer(context.Background(), st,
		WithCoreConfig(core.Config{
			Net: net9, Policy: transfer.SJF, Seed: 1, MaxIterations: 60,
		}),
		WithSlotSeconds(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, serve(t, ctrl)
}

// serve starts ctrl on a loopback listener and returns its address; the
// test's cleanup closes the controller.
func serve(t *testing.T, ctrl *Controller) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ctrl.Serve(lis)
	t.Cleanup(ctrl.Close)
	return lis.Addr().String()
}

func TestSubmitAndTick(t *testing.T) {
	ctrl, addr := newTestController(t, nil)

	var mu sync.Mutex
	var got []WireRate
	cl, err := Dial(context.Background(), addr, WithSite(0), WithOnRates(func(rs []WireRate) {
		mu.Lock()
		got = append(got, rs...)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	id, err := cl.Submit(context.Background(), WireRequest{Src: 0, Dst: 1, SizeGbits: 50})
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Errorf("first id = %d", id)
	}
	ctrl.Tick()

	// The rate push is asynchronous; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("no rate allocation received")
	}
	if got[0].TransferID != id || got[0].RateGbps <= 0 {
		t.Errorf("allocation = %+v", got[0])
	}
}

func TestTransferCompletesAndStatus(t *testing.T) {
	ctrl, addr := newTestController(t, nil)
	cl, err := Dial(context.Background(), addr, WithSite(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// 50 Gbit with 10 s slots at >= 5 Gbps: done in one or two ticks.
	if _, err := cl.Submit(context.Background(), WireRequest{Src: 0, Dst: 1, SizeGbits: 50}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && ctrl.Completed() == 0; i++ {
		ctrl.Tick()
	}
	if ctrl.Completed() != 1 {
		t.Errorf("completed = %d, want 1", ctrl.Completed())
	}
	st, err := cl.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 || st.Slot == 0 {
		t.Errorf("status = %+v", st)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, addr := newTestController(t, nil)
	cl, err := Dial(context.Background(), addr, WithSite(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Submit(context.Background(), WireRequest{Src: 0, Dst: 0, SizeGbits: 10}); err == nil {
		t.Error("src==dst accepted")
	}
	if _, err := cl.Submit(context.Background(), WireRequest{Src: 0, Dst: 99, SizeGbits: 10}); err == nil {
		t.Error("out-of-range site accepted")
	}
	if _, err := cl.Submit(context.Background(), WireRequest{Src: 0, Dst: 1, SizeGbits: -5}); err == nil {
		t.Error("negative size accepted")
	}
}

func TestControllerFailover(t *testing.T) {
	st := store.New()
	ctrl, addr := newTestController(t, st)
	cl, err := Dial(context.Background(), addr, WithSite(0))
	if err != nil {
		t.Fatal(err)
	}
	// A big transfer that will not finish quickly.
	id, err := cl.Submit(context.Background(), WireRequest{Src: 0, Dst: 8, SizeGbits: 100000})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Tick()
	slotBefore := ctrl.Slot()
	cl.Close()
	ctrl.Close()

	// Promote a replica of the store and spawn a fresh controller: it must
	// resume with the transfer still outstanding at the next slot.
	replica := store.New()
	if err := store.Sync(st, replica); err != nil {
		t.Fatal(err)
	}
	ctrl2, err := NewServer(context.Background(), replica,
		WithCoreConfig(core.Config{
			Net: topology.Internet2(8), Policy: transfer.SJF, Seed: 2, MaxIterations: 60,
		}),
		WithSlotSeconds(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl2.Slot() != slotBefore {
		t.Errorf("recovered slot = %d, want %d", ctrl2.Slot(), slotBefore)
	}
	ctrl2.mu.Lock()
	tr, ok := ctrl2.transfers[id]
	ctrl2.mu.Unlock()
	if !ok {
		t.Fatal("transfer lost in failover")
	}
	if tr.Done || tr.Remaining >= 100000 {
		t.Errorf("recovered transfer state wrong: done=%v remaining=%v", tr.Done, tr.Remaining)
	}
	// The new controller keeps scheduling it.
	remBefore := tr.Remaining
	ctrl2.Tick()
	ctrl2.mu.Lock()
	rem := ctrl2.transfers[id].Remaining
	ctrl2.mu.Unlock()
	if rem >= remBefore {
		t.Error("no progress after failover")
	}
}

func TestFiberFailureRecompute(t *testing.T) {
	ctrl, addr := newTestController(t, nil)
	cl, err := Dial(context.Background(), addr, WithSite(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Submit(context.Background(), WireRequest{Src: 7, Dst: 8, SizeGbits: 500}); err != nil {
		t.Fatal(err)
	}
	fibers := len(ctrl.Net.Fibers)
	// Fail the WASH-NEWY fiber (id 11 in the Internet2 builder). The
	// report is now a synchronous acked RPC.
	if err := cl.ReportFiberFailure(context.Background(), 11); err != nil {
		t.Fatal(err)
	}
	ctrl.mu.Lock()
	n := len(ctrl.Net.Fibers)
	ctrl.mu.Unlock()
	if n != fibers-1 {
		t.Fatalf("fiber not removed: %d", n)
	}
	// Transfers still complete via other routes.
	for i := 0; i < 20 && ctrl.Completed() == 0; i++ {
		ctrl.Tick()
	}
	if ctrl.Completed() != 1 {
		t.Error("transfer did not complete after fiber failure")
	}
	// Re-reporting an already-failed fiber is idempotent (a retry after a
	// lost ack must not error)...
	if err := cl.ReportFiberFailure(context.Background(), 11); err != nil {
		t.Errorf("idempotent re-report failed: %v", err)
	}
	// ...but a fiber that never existed is a typed error.
	err = cl.ReportFiberFailure(context.Background(), 999)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != ErrCodeUnknownFiber {
		t.Errorf("unknown fiber: got %v, want ServerError{unknown-fiber}", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	ctrl, addr := newTestController(t, nil)
	const n = 8
	var wg sync.WaitGroup
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(context.Background(), addr, WithSite(i%9))
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			id, err := cl.Submit(context.Background(), WireRequest{Src: i % 9, Dst: (i + 1) % 9, SizeGbits: 10})
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate transfer id %d", id)
		}
		seen[id] = true
	}
	for i := 0; i < 10 && ctrl.Completed() < n; i++ {
		ctrl.Tick()
	}
	if ctrl.Completed() != n {
		t.Errorf("completed = %d, want %d", ctrl.Completed(), n)
	}
}
