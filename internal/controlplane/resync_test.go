package controlplane

import (
	"context"
	"net"
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

// pipeListener serves in-memory net.Pipe connections. Pipes are
// unbuffered, so a peer that stops reading blocks the writer — the
// exact condition the per-client write timeout exists for, and one a
// loopback TCP socket's kernel buffers would hide.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn, 8), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.ch <- server:
	case <-time.After(2 * time.Second):
		t.Fatal("pipe listener not accepting")
	}
	t.Cleanup(func() { client.Close() })
	return client
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestPushFailureMarksResync: a client that stops reading stalls its
// rate push until the write timeout, after which the controller drops
// the connection, counts the failure, and marks the site for resync;
// the site's next snapshot resync clears the mark and replays the
// pending transfer.
func TestPushFailureMarksResync(t *testing.T) {
	ctrl, err := NewServer(context.Background(), nil,
		WithCoreConfig(core.Config{
			Net: topology.Internet2(8), Policy: transfer.SJF, Seed: 1, MaxIterations: 60,
		}),
		WithSlotSeconds(10),
		WithWriteTimeout(100*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	lis := newPipeListener()
	go ctrl.Serve(lis)
	t.Cleanup(ctrl.Close)

	conn := lis.dial(t)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteMsg(conn, &Message{Type: MsgHello, Seq: 1, Site: 1, Version: ProtoVersion}); err != nil {
		t.Fatal(err)
	}
	if m, err := ReadMsg(conn); err != nil || m.Type != MsgWelcome {
		t.Fatalf("handshake reply %+v (err %v)", m, err)
	}
	if err := WriteMsg(conn, &Message{Type: MsgSubmit, Seq: 2, Token: "push-fail-1",
		Request: &WireRequest{Src: 1, Dst: 5, SizeGbits: 5000}}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMsg(conn)
	if err != nil || m.Type != MsgSubmitAck {
		t.Fatalf("submit reply %+v (err %v)", m, err)
	}
	id := m.ID

	// Stop reading. The tick's rate push blocks on the unbuffered pipe
	// until the write deadline, then fails.
	ctrl.Tick()
	if got := ctrl.Counters().PushFailures; got == 0 {
		t.Fatal("push to a non-reading client never failed")
	}
	if got := ctrl.ResyncPending(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("ResyncPending = %v, want [1]", got)
	}

	// Reconnect and resync: the snapshot replays the still-pending
	// transfer (with progress from the tick) and clears the mark.
	conn2 := lis.dial(t)
	conn2.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteMsg(conn2, &Message{Type: MsgHello, Seq: 1, Site: 1, Version: ProtoVersion}); err != nil {
		t.Fatal(err)
	}
	if m, err := ReadMsg(conn2); err != nil || m.Type != MsgWelcome {
		t.Fatalf("reconnect handshake reply %+v (err %v)", m, err)
	}
	if err := WriteMsg(conn2, &Message{Type: MsgResync, Seq: 2, Site: 1}); err != nil {
		t.Fatal(err)
	}
	m, err = ReadMsg(conn2)
	if err != nil || m.Type != MsgSnapshot || m.Snapshot == nil {
		t.Fatalf("resync reply %+v (err %v)", m, err)
	}
	if len(m.Snapshot.Pending) != 1 {
		t.Fatalf("snapshot pending = %+v, want the one live transfer", m.Snapshot.Pending)
	}
	p := m.Snapshot.Pending[0]
	if p.ID != id || p.Token != "push-fail-1" || p.Src != 1 || p.Dst != 5 {
		t.Errorf("snapshot entry %+v, want id %d token push-fail-1", p, id)
	}
	if p.RemainingGbits >= p.SizeGbits || p.RemainingGbits <= 0 {
		t.Errorf("remaining %.1f of %.1f: want mid-flight progress", p.RemainingGbits, p.SizeGbits)
	}
	if got := ctrl.ResyncPending(); len(got) != 0 {
		t.Errorf("ResyncPending after resync = %v, want empty", got)
	}
	if ctrl.Counters().Resyncs == 0 {
		t.Error("resync not counted")
	}
}

// TestResyncAfterPartitionE2E runs the full client/controller stack
// under faultnet across three seeds: a partitioned client loses its
// connection mid-transfer, the unaffected client keeps receiving rates,
// and after the heal the partitioned client reconnects on its own and
// converges through the automatic snapshot resync — its durable
// transfers replayed with ids, tokens, and progress intact — then
// resumes receiving rate pushes.
func TestResyncAfterPartitionE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("partition e2e waits out reconnect backoff")
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			st := store.New()
			ctrl, err := NewServer(context.Background(), st,
				WithCoreConfig(core.Config{
					Net: topology.Internet2(8), Policy: transfer.SJF, Seed: seed, MaxIterations: 60,
				}),
				WithSlotSeconds(10),
				WithWriteTimeout(300*time.Millisecond),
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

			inj := faultnet.New(faultnet.Config{Seed: seed, DelayProb: 0.2, MaxDelay: time.Millisecond})
			var mu sync.Mutex
			ratesA, ratesB := 0, 0
			var lastSnap *WireSnapshot // clA's latest resync snapshot, under mu
			disconnected := make(chan struct{}, 4)
			clA, err := Dial(context.Background(), addr,
				WithSite(1),
				WithDialer(inj.DialerFrom(defaultOptions().dialer)),
				WithHeartbeatInterval(25*time.Millisecond),
				WithBackoff(10*time.Millisecond, 50*time.Millisecond),
				WithJitterSeed(seed),
				WithOnDisconnect(func(error) {
					select {
					case disconnected <- struct{}{}:
					default:
					}
				}),
				WithOnRates(func(rs []WireRate) { mu.Lock(); ratesA += len(rs); mu.Unlock() }),
				WithOnResync(func(s *WireSnapshot) { mu.Lock(); lastSnap = s; mu.Unlock() }),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer clA.Close()
			clB, err := Dial(context.Background(), addr, WithSite(2),
				WithOnRates(func(rs []WireRate) { mu.Lock(); ratesB += len(rs); mu.Unlock() }),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer clB.Close()

			idA1, err := clA.Submit(context.Background(), WireRequest{Src: 1, Dst: 4, SizeGbits: 4000})
			if err != nil {
				t.Fatal(err)
			}
			idA2, err := clA.Submit(context.Background(), WireRequest{Src: 1, Dst: 6, SizeGbits: 3000})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := clB.Submit(context.Background(), WireRequest{Src: 2, Dst: 7, SizeGbits: 2000}); err != nil {
				t.Fatal(err)
			}

			// Sever A and wait until its client notices.
			inj.Partition(true)
			select {
			case <-disconnected:
			case <-time.After(5 * time.Second):
				t.Fatal("partitioned client never noticed the cut")
			}

			// A slot during the partition: the unaffected client still
			// gets its allocation (delivery is async: tick, then poll).
			ctrl.Tick()
			bDeadline := time.Now().Add(5 * time.Second)
			for {
				mu.Lock()
				gotB := ratesB
				mu.Unlock()
				if gotB > 0 {
					break
				}
				if time.Now().After(bDeadline) {
					t.Error("unaffected client received no rates during the partition")
					break
				}
				ctrl.Tick()
				time.Sleep(5 * time.Millisecond)
			}

			// Heal; A reconnects on its own and auto-resyncs, replaying
			// both pending transfers.
			inj.Partition(false)
			var snap *WireSnapshot
			deadline := time.Now().Add(10 * time.Second)
			for {
				mu.Lock()
				snap = lastSnap
				mu.Unlock()
				if snap != nil && len(snap.Pending) == 2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no post-heal resync snapshot with 2 pending (last %+v)", snap)
				}
				time.Sleep(10 * time.Millisecond)
			}
			want := map[int]bool{idA1: true, idA2: true}
			for _, p := range snap.Pending {
				if !want[p.ID] {
					t.Errorf("snapshot replayed unexpected transfer %+v", p)
				}
				delete(want, p.ID)
				if p.Token == "" {
					t.Errorf("snapshot entry %d lost its idempotency token", p.ID)
				}
				if p.RemainingGbits <= 0 || p.RemainingGbits > p.SizeGbits {
					t.Errorf("snapshot entry %d remaining %.1f of %.1f", p.ID, p.RemainingGbits, p.SizeGbits)
				}
			}
			if len(want) != 0 {
				t.Errorf("snapshot missing transfers %v", want)
			}

			// Rates resume for the resynced client on the next slot.
			mu.Lock()
			baseA := ratesA
			mu.Unlock()
			deadline = time.Now().Add(10 * time.Second)
			for {
				ctrl.Tick()
				mu.Lock()
				gotA := ratesA
				mu.Unlock()
				if gotA > baseA {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("resynced client never received rates after the heal")
				}
				time.Sleep(10 * time.Millisecond)
			}
			if ctrl.Counters().Resyncs == 0 {
				t.Error("no resync counted")
			}
			if pend := ctrl.ResyncPending(); len(pend) != 0 {
				t.Errorf("ResyncPending after convergence = %v, want empty", pend)
			}
		})
	}
}

// TestSnapshotSkipsDoneAndOrdersIds: a site's snapshot excludes
// finished transfers and lists the rest in ascending id order.
func TestSnapshotSkipsDoneAndOrdersIds(t *testing.T) {
	ctrl, err := NewServer(context.Background(), nil,
		WithCoreConfig(core.Config{
			Net: topology.Internet2(8), Policy: transfer.SJF, Seed: 1, MaxIterations: 60,
		}),
		WithSlotSeconds(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	// One tiny transfer that finishes in a slot, then two big ones.
	if _, err := ctrl.submit(WireRequest{Src: 5, Dst: 6, SizeGbits: 1}, 5, "tiny"); err != nil {
		t.Fatal(err)
	}
	big1, err := ctrl.submit(WireRequest{Src: 5, Dst: 7, SizeGbits: 8000}, 5, "big1")
	if err != nil {
		t.Fatal(err)
	}
	big2, err := ctrl.submit(WireRequest{Src: 5, Dst: 3, SizeGbits: 9000}, 5, "big2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && ctrl.Completed() == 0; i++ {
		ctrl.Tick()
	}
	if ctrl.Completed() == 0 {
		t.Fatal("tiny transfer never completed")
	}

	snap := ctrl.snapshotSite(5)
	if len(snap.Pending) != 2 {
		t.Fatalf("pending = %+v, want the two big transfers", snap.Pending)
	}
	if snap.Pending[0].ID != big1 || snap.Pending[1].ID != big2 {
		t.Errorf("pending order = [%d %d], want [%d %d]",
			snap.Pending[0].ID, snap.Pending[1].ID, big1, big2)
	}
	if snap.Truncated {
		t.Error("snapshot claims truncation")
	}
	if snap.Slot != ctrl.Slot() {
		t.Errorf("snapshot slot = %d, want %d", snap.Slot, ctrl.Slot())
	}
}
