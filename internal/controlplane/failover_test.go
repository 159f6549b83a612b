package controlplane

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"owan/internal/core"
	"owan/internal/store"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// promote simulates §3.4 failover: sync a replica of the dead controller's
// store and spawn a fresh controller from it.
func promote(t *testing.T, st *store.Store, seed int64) *Controller {
	t.Helper()
	replica := store.New()
	if err := store.Sync(st, replica); err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewServer(context.Background(), replica,
		WithCoreConfig(core.Config{
			Net: topology.Internet2(8), Policy: transfer.SJF, Seed: seed, MaxIterations: 60,
		}),
		WithSlotSeconds(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// TestFailoverInvariants kills a controller against a populated store and
// asserts the takeover preserves the slot counter, transfer progress, and
// next-id monotonicity — the invariants that make ids unique and progress
// monotone across controller generations.
func TestFailoverInvariants(t *testing.T) {
	st := store.New()
	ctrl, addr := newTestController(t, st)
	cl, err := Dial(context.Background(), addr, WithSite(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var ids []int
	for i := 0; i < 3; i++ {
		id, err := cl.Submit(context.Background(), WireRequest{Src: 0, Dst: 8, SizeGbits: 200000})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctrl.Tick()
	ctrl.Tick()
	slotBefore := ctrl.Slot()
	nextBefore := ctrl.NextID()
	progressBefore := map[int]float64{}
	ctrl.mu.Lock()
	for id, tr := range ctrl.transfers {
		progressBefore[id] = tr.Remaining
	}
	ctrl.mu.Unlock()
	ctrl.Close()

	ctrl2 := promote(t, st, 2)
	if got := ctrl2.Slot(); got != slotBefore {
		t.Errorf("slot counter: recovered %d, want %d", got, slotBefore)
	}
	if got := ctrl2.NextID(); got != nextBefore {
		t.Errorf("next id: recovered %d, want %d", got, nextBefore)
	}
	ctrl2.mu.Lock()
	for id, want := range progressBefore {
		tr, ok := ctrl2.transfers[id]
		if !ok {
			t.Errorf("transfer %d lost in takeover", id)
			continue
		}
		if tr.Remaining != want {
			t.Errorf("transfer %d progress: recovered remaining=%v, want %v", id, tr.Remaining, want)
		}
	}
	ctrl2.mu.Unlock()

	// New submissions on the successor continue the id sequence — no reuse.
	id, err := ctrl2.Submit(WireRequest{Src: 1, Dst: 2, SizeGbits: 10})
	if err != nil {
		t.Fatal(err)
	}
	if id != nextBefore {
		t.Errorf("first post-failover id = %d, want %d", id, nextBefore)
	}
	for _, old := range ids {
		if id == old {
			t.Errorf("post-failover id %d collides with pre-failover id", id)
		}
	}
}

// TestSubmitTokenIdempotentAcrossFailover: a submission whose ack was lost
// is retried against the successor controller with the same token and must
// map to the original transfer, not a duplicate.
func TestSubmitTokenIdempotentAcrossFailover(t *testing.T) {
	st := store.New()
	ctrl, _ := newTestController(t, st)
	id1, err := ctrl.submit(WireRequest{Src: 0, Dst: 5, SizeGbits: 1000}, 0, "tok-abc")
	if err != nil {
		t.Fatal(err)
	}
	// Same token on the same controller: same id, no new transfer.
	id2, err := ctrl.submit(WireRequest{Src: 0, Dst: 5, SizeGbits: 1000}, 0, "tok-abc")
	if err != nil || id2 != id1 {
		t.Fatalf("same-controller resubmit: got (%d, %v), want (%d, nil)", id2, err, id1)
	}
	ctrl.Close()

	ctrl2 := promote(t, st, 3)
	id3, err := ctrl2.submit(WireRequest{Src: 0, Dst: 5, SizeGbits: 1000}, 0, "tok-abc")
	if err != nil || id3 != id1 {
		t.Fatalf("post-failover resubmit: got (%d, %v), want (%d, nil)", id3, err, id1)
	}
	ctrl2.mu.Lock()
	n := len(ctrl2.transfers)
	ctrl2.mu.Unlock()
	if n != 1 {
		t.Errorf("duplicate transfer created: %d transfers, want 1", n)
	}
}

// TestReconnectReadoption: a client that reconnects — e.g. to a standby
// controller that took over the store — is re-adopted at its hello and
// keeps receiving rate pushes for transfers it submitted before the
// failover.
func TestReconnectReadoption(t *testing.T) {
	st := store.New()
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
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	go ctrl.Serve(lis)

	var mu sync.Mutex
	var got []WireRate
	disconnects := 0
	cl, err := Dial(context.Background(), addr,
		WithSite(0),
		WithHeartbeatInterval(30*time.Millisecond),
		WithBackoff(10*time.Millisecond, 100*time.Millisecond),
		WithOnDisconnect(func(error) { mu.Lock(); disconnects++; mu.Unlock() }),
		WithOnRates(func(rs []WireRate) {
			mu.Lock()
			got = append(got, rs...)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	id, err := cl.Submit(context.Background(), WireRequest{Src: 0, Dst: 8, SizeGbits: 500000})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the controller and promote a standby on the same address.
	ctrl.Close()
	ctrl2 := promote(t, st, 2)
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

	// The client reconnects on its own; the successor's ticks must reach
	// it with allocations for the pre-failover transfer.
	sawRate := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range got {
			if r.TransferID == id && r.RateGbps > 0 {
				return true
			}
		}
		return false
	}
	deadline = time.Now().Add(10 * time.Second)
	for !sawRate() {
		if time.Now().After(deadline) {
			t.Fatal("reconnected client never received a rate push from the successor controller")
		}
		ctrl2.Tick()
		time.Sleep(20 * time.Millisecond)
	}
	mu.Lock()
	n := disconnects
	mu.Unlock()
	if n == 0 {
		t.Error("client claims it never disconnected, but the controller was killed")
	}
}

// TestVersionMismatchTypedError: an old-version client (no version field
// in its hello) must receive a typed version-mismatch error — not a hang,
// not a silent close.
func TestVersionMismatchTypedError(t *testing.T) {
	_, addr := newTestController(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A protocol-version-0 hello: exactly what the pre-resilience client
	// sent (site only, no version field).
	if err := WriteMsg(conn, &Message{Type: MsgHello, Site: 3}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	m, err := ReadMsg(conn)
	if err != nil {
		t.Fatalf("no reply to old-version hello (hang or drop): %v", err)
	}
	if m.Type != MsgError || m.Code != ErrCodeVersionMismatch {
		t.Errorf("reply = %+v, want MsgError with code %q", m, ErrCodeVersionMismatch)
	}
	// The connection is then closed by the controller.
	if _, err := ReadMsg(conn); err == nil {
		t.Error("connection stayed open after version mismatch")
	}

	// The high-level client surfaces the mismatch as a terminal typed
	// error too (simulated here by a hello-first protocol violation:
	// submitting before hello).
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := WriteMsg(conn2, &Message{Type: MsgStatus}); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	m2, err := ReadMsg(conn2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Type != MsgError || m2.Code != ErrCodeProtocol {
		t.Errorf("pre-hello request reply = %+v, want MsgError with code %q", m2, ErrCodeProtocol)
	}
}

// fakeHandshake plays the controller's side of a client's connect: it
// reads the hello, welcomes it, and answers the resync that follows with an
// empty snapshot. It reports whether both exchanges went through.
func fakeHandshake(conn net.Conn) bool {
	if _, err := ReadMsg(conn); err != nil { // hello
		return false
	}
	if WriteMsg(conn, &Message{Type: MsgWelcome, Version: ProtoVersion}) != nil {
		return false
	}
	m, err := ReadMsg(conn) // resync
	if err != nil {
		return false
	}
	return WriteMsg(conn, &Message{Type: MsgSnapshot, Seq: m.Seq, Snapshot: &WireSnapshot{}}) == nil
}

// TestDecodeErrorSurfacedOnce: a corrupt frame from the controller must
// surface exactly once through WithOnDisconnect, not be swallowed (the old
// readLoop dropped the error on the floor) and not spam per-frame.
func TestDecodeErrorSurfacedOnce(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	// A fake controller that handshakes correctly, then emits garbage.
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Complete the handshake: the garbage must reach the read loop,
		// not the handshake.
		if !fakeHandshake(conn) {
			return
		}
		// A well-framed, checksum-valid but undecodable payload.
		body := []byte("junk")
		hdr := make([]byte, 8)
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
		binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
		conn.Write(append(hdr, body...))
		time.Sleep(200 * time.Millisecond)
	}()

	var mu sync.Mutex
	var surfaced []error
	cl, err := Dial(context.Background(), lis.Addr().String(),
		WithSite(0),
		WithBackoff(20*time.Millisecond, 50*time.Millisecond),
		WithRetryMax(2), // the fake controller won't accept again; give up fast
		WithOnDisconnect(func(e error) {
			mu.Lock()
			surfaced = append(surfaced, e)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(surfaced)
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(surfaced) != 1 {
		t.Fatalf("decode error surfaced %d times, want exactly once: %v", len(surfaced), surfaced)
	}
	if surfaced[0] == nil || !errors.Is(surfaced[0], surfaced[0]) || surfaced[0].Error() == "" {
		t.Errorf("surfaced error is empty: %v", surfaced[0])
	}
}

// TestHeartbeatDetectsDeadController: a controller that stops reading and
// writing (without closing) is detected by the client's heartbeat and the
// connection is reported down.
func TestHeartbeatDetectsDeadController(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		if !fakeHandshake(conn) {
			return
		}
		// Go silent: never answer pings, never close. Only a heartbeat
		// timeout can notice this.
		select {}
	}()

	down := make(chan error, 1)
	cl, err := Dial(context.Background(), lis.Addr().String(),
		WithSite(0),
		WithHeartbeatInterval(25*time.Millisecond),
		WithRetryMax(1),
		WithBackoff(10*time.Millisecond, 20*time.Millisecond),
		WithOnDisconnect(func(e error) {
			select {
			case down <- e:
			default:
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	select {
	case e := <-down:
		if e == nil {
			t.Error("disconnect hook got nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat never detected the silent controller")
	}
}

// TestServerDetectsDeadClient: the controller's read deadline reaps a
// client that goes silent (no requests, no pings).
func TestServerDetectsDeadClient(t *testing.T) {
	ctrl, err := NewServer(context.Background(), nil,
		WithCoreConfig(core.Config{
			Net: topology.Internet2(8), Policy: transfer.SJF, Seed: 1, MaxIterations: 60,
		}),
		WithSlotSeconds(10),
		WithReadTimeout(80*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ctrl.Serve(lis)
	t.Cleanup(ctrl.Close)
	addr := lis.Addr().String()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMsg(conn, &Message{Type: MsgHello, Site: 1, Version: ProtoVersion}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if m, err := ReadMsg(conn); err != nil || m.Type != MsgWelcome {
		t.Fatalf("handshake: (%+v, %v)", m, err)
	}
	// Go silent. The controller must close the connection.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := ReadMsg(conn); err == nil {
		t.Fatal("controller kept a silent client alive past its read timeout")
	}
	// A pinging client stays alive over the same wall-clock span.
	var disconnects atomic.Int32
	cl, err := Dial(context.Background(), addr, WithSite(2), WithHeartbeatInterval(20*time.Millisecond),
		WithOnDisconnect(func(error) { disconnects.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(250 * time.Millisecond) // > 3 read timeouts
	if _, err := cl.Status(context.Background()); err != nil {
		t.Errorf("heartbeating client was reaped: %v", err)
	}
	if n := disconnects.Load(); n != 0 {
		t.Errorf("heartbeating client disconnected %d times", n)
	}
}
