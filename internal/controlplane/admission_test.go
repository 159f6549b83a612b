package controlplane

import (
	"context"
	"net"
	"testing"
	"time"

	"owan/internal/core"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// gatedServer starts a controller whose shard workers stall on the
// returned gate channel before draining each batch, making "queue full"
// reproducible: with one shard of depth d, at most d+1 submissions are
// in flight (one held by the stalled worker) before overload.
func gatedServer(t *testing.T, depth int, extra ...ServerOption) (*Controller, string, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	opts := append([]ServerOption{
		WithCoreConfig(core.Config{
			Net: topology.Internet2(8), Policy: transfer.SJF, Seed: 1, MaxIterations: 60,
		}),
		WithSlotSeconds(10),
		WithShards(1),
		WithQueueDepth(depth),
		withAdmitGate(gate),
	}, extra...)
	ctrl, err := NewServer(context.Background(), nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ctrl.Serve(lis)
	t.Cleanup(ctrl.Close)
	return ctrl, lis.Addr().String(), gate
}

// rawHello dials a raw connection and completes the handshake at the
// given protocol version, returning the connection and the welcome.
func rawHello(t *testing.T, addr string, version int) (net.Conn, *Message) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := WriteMsg(conn, &Message{Type: MsgHello, Seq: 1, Site: 1, Version: version}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := ReadMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	return conn, m
}

// TestBackpressureQueueFull: with a stalled worker and a bounded queue,
// excess submissions draw a typed overloaded error carrying a positive
// retry-after hint, and every queued submission is still admitted once
// the worker resumes — nothing is silently dropped.
func TestBackpressureQueueFull(t *testing.T) {
	_, addr, gate := gatedServer(t, 2)
	conn, w := rawHello(t, addr, ProtoVersion)
	if w.Type != MsgWelcome {
		t.Fatalf("handshake reply %+v", w)
	}

	const n = 6 // > depth(2) + 1 held by the stalled worker
	for seq := uint64(2); seq < 2+n; seq++ {
		if err := WriteMsg(conn, &Message{Type: MsgSubmit, Seq: seq,
			Request: &WireRequest{Src: 1, Dst: 2, SizeGbits: 10}}); err != nil {
			t.Fatal(err)
		}
	}
	// Overload rejections arrive immediately; acks only after the gate
	// opens. Read the rejections first.
	overloads := 0
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for overloads < n-3 { // n submits, 2 queued + 1 in worker can succeed
		m, err := ReadMsg(conn)
		if err != nil {
			t.Fatalf("after %d overloads: %v", overloads, err)
		}
		if m.Type != MsgError || m.Code != ErrCodeOverloaded {
			t.Fatalf("pre-gate reply %+v, want overloaded error", m)
		}
		if m.RetryAfterMs <= 0 {
			t.Errorf("overloaded error without retry-after hint: %+v", m)
		}
		overloads++
	}
	close(gate) // resume the worker
	acks := 0
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for acks+overloads < n {
		m, err := ReadMsg(conn)
		if err != nil {
			t.Fatalf("after %d acks + %d overloads: %v", acks, overloads, err)
		}
		switch {
		case m.Type == MsgSubmitAck:
			acks++
		case m.Type == MsgError && m.Code == ErrCodeOverloaded:
			overloads++
		default:
			t.Fatalf("unexpected reply %+v", m)
		}
	}
	if acks == 0 {
		t.Error("no submission was admitted after the gate opened")
	}
}

// TestClientHonorsRetryAfter: the real client absorbs an overloaded
// rejection, waits out the hint, and retries the same submission on the
// same connection until admitted — the caller sees one successful RPC.
func TestClientHonorsRetryAfter(t *testing.T) {
	ctrl, addr, gate := gatedServer(t, 1)
	// Fill the pipeline: one job stalls in the worker, one fills the queue.
	// Step by step, or the client's submit may overtake the fill and never
	// be shed: the reader answers a ping only after it has handed the
	// submit before it to admission.
	fill, w := rawHello(t, addr, ProtoVersion)
	if w.Type != MsgWelcome {
		t.Fatalf("handshake reply %+v", w)
	}
	fillStep := func(seq uint64) {
		for _, m := range []*Message{
			{Type: MsgSubmit, Seq: seq, Request: &WireRequest{Src: 1, Dst: 2, SizeGbits: 10}},
			{Type: MsgPing, Seq: seq},
		} {
			if err := WriteMsg(fill, m); err != nil {
				t.Fatal(err)
			}
		}
		fill.SetReadDeadline(time.Now().Add(5 * time.Second))
		if m, err := ReadMsg(fill); err != nil || m.Type != MsgPong {
			t.Fatalf("fill submit %d: reply %+v, %v", seq, m, err)
		}
	}
	fillStep(2)
	for len(ctrl.shards[0].jobs) > 0 { // the worker takes job 2 and stalls
		time.Sleep(time.Millisecond)
	}
	fillStep(3)

	cl, err := Dial(context.Background(), addr, WithSite(3), WithJitterSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Open the gate once the controller has shed at least one of the
	// client's submissions.
	shed := ctrl.Counters().Overloads
	go func() {
		for ctrl.Counters().Overloads == shed {
			time.Sleep(2 * time.Millisecond)
		}
		close(gate)
	}()
	id, err := cl.Submit(context.Background(), WireRequest{Src: 3, Dst: 4, SizeGbits: 10})
	if err != nil {
		t.Fatalf("submit through backpressure: %v", err)
	}
	if id < 0 {
		t.Errorf("id = %d", id)
	}
	if ctrl.Counters().Overloads == shed {
		t.Error("server shed none of the client's submissions")
	}
}

// TestMaxClientsRefusal: hellos beyond the registration cap draw a
// typed overloaded error with a retry-after hint; a slot freed by a
// disconnect admits the next hello.
func TestMaxClientsRefusal(t *testing.T) {
	ctrl, addr, gate := gatedServer(t, 8, WithMaxClients(1))
	close(gate)

	first, w := rawHello(t, addr, ProtoVersion)
	if w.Type != MsgWelcome {
		t.Fatalf("first hello reply %+v", w)
	}
	_, m := rawHello(t, addr, ProtoVersion)
	if m.Type != MsgError || m.Code != ErrCodeOverloaded || m.RetryAfterMs <= 0 {
		t.Fatalf("over-cap hello reply %+v, want overloaded error with hint", m)
	}
	if got := ctrl.Counters().RefusedClients; got != 1 {
		t.Errorf("RefusedClients = %d, want 1", got)
	}

	first.Close()
	// The slot frees once the server reaps the closed connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		WriteMsg(conn, &Message{Type: MsgHello, Seq: 1, Site: 2, Version: ProtoVersion})
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		m, err := ReadMsg(conn)
		conn.Close()
		if err == nil && m.Type == MsgWelcome {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("freed slot never admitted a new client (last reply %+v, err %v)", m, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fixedClock pins the server's deadline clock.
type fixedClock struct{ at time.Time }

func (f fixedClock) Now() time.Time { return f.at }

// TestWithClockReapsInstantly: with the server clock pinned far in the
// past, every armed read deadline is already expired, so even a fresh
// connection is reaped on its first read — proof the deadlines run off
// the injectable clock, not the wall.
func TestWithClockReapsInstantly(t *testing.T) {
	ctrl, err := NewServer(context.Background(), nil,
		WithCoreConfig(core.Config{
			Net: topology.Internet2(8), Policy: transfer.SJF, Seed: 1, MaxIterations: 60,
		}),
		WithSlotSeconds(10),
		WithReadTimeout(time.Hour), // irrelevant: now+1h is still the past
		WithClock(fixedClock{at: time.Unix(0, 0)}),
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

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadMsg(conn); err == nil {
		t.Fatal("connection survived an expired server-side deadline")
	}
}

// TestVersionNegotiation covers the version matrix: retired v1 and v0
// clients are rejected with a typed error, and a futuristic client is
// capped at the controller's version.
func TestVersionNegotiation(t *testing.T) {
	_, addr, gate := gatedServer(t, 8)
	close(gate)

	t.Run("v1-rejected", func(t *testing.T) {
		_, m := rawHello(t, addr, 1)
		if m.Type != MsgError || m.Code != ErrCodeVersionMismatch {
			t.Fatalf("v1 hello reply %+v, want version-mismatch", m)
		}
	})

	t.Run("v0-rejected", func(t *testing.T) {
		_, m := rawHello(t, addr, 0)
		if m.Type != MsgError || m.Code != ErrCodeVersionMismatch {
			t.Fatalf("v0 hello reply %+v, want version-mismatch", m)
		}
	})

	t.Run("v3-capped", func(t *testing.T) {
		conn, w := rawHello(t, addr, 3)
		if w.Type != MsgWelcome || w.Version != ProtoVersion {
			t.Fatalf("v3 hello reply %+v, want welcome at version %d", w, ProtoVersion)
		}
		if err := WriteMsg(conn, &Message{Type: MsgResync, Seq: 2, Site: 1}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		m, err := ReadMsg(conn)
		if err != nil || m.Type != MsgSnapshot || m.Snapshot == nil {
			t.Fatalf("v3 resync reply %+v (err %v), want snapshot", m, err)
		}
	})
}
