package faultnet

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoListener accepts connections and copies everything read into a
// buffer, returning a getter.
func sinkServer(t *testing.T) (addr string, got func() []byte) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	var mu sync.Mutex
	var buf bytes.Buffer
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				tmp := make([]byte, 4096)
				for {
					n, err := c.Read(tmp)
					if n > 0 {
						mu.Lock()
						buf.Write(tmp[:n])
						mu.Unlock()
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return lis.Addr().String(), func() []byte {
		mu.Lock()
		defer mu.Unlock()
		return append([]byte(nil), buf.Bytes()...)
	}
}

// drive pushes the same write pattern through a fresh injector and
// returns the resulting fault stats.
func drive(t *testing.T, cfg Config, writes int) Stats {
	t.Helper()
	addr, _ := sinkServer(t)
	inj := New(cfg)
	conn, err := inj.Dialer()(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := bytes.Repeat([]byte{0xAB}, 64)
	for i := 0; i < writes; i++ {
		if _, err := conn.Write(msg); err != nil {
			break // injected reset ends the pattern, deterministically
		}
	}
	return inj.Stats()
}

func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, DelayProb: 0.2, MaxDelay: 100 * time.Microsecond,
		CorruptProb: 0.1, DropProb: 0.1, ResetProb: 0.02}
	a := drive(t, cfg, 500)
	b := drive(t, cfg, 500)
	if a != b {
		t.Errorf("same seed, different schedules:\n a=%+v\n b=%+v", a, b)
	}
	if a.Delays+a.WriteCorrupt+a.Drops+a.Resets == 0 {
		t.Error("schedule injected no faults at all")
	}
	c := drive(t, Config{Seed: 43, DelayProb: 0.2, MaxDelay: 100 * time.Microsecond,
		CorruptProb: 0.1, DropProb: 0.1, ResetProb: 0.02}, 500)
	if a == c {
		t.Error("different seeds produced identical schedules (suspicious)")
	}
}

func TestWriteCorruptionFlipsExactlyOneByte(t *testing.T) {
	addr, got := sinkServer(t)
	inj := New(Config{Seed: 7, CorruptProb: 1}) // corrupt every write
	conn, err := inj.Dialer()(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x00}, 32)
	if _, err := conn.Write(want); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	var b []byte
	for time.Now().Before(deadline) {
		if b = got(); len(b) == len(want) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(b) != len(want) {
		t.Fatalf("received %d bytes, want %d", len(b), len(want))
	}
	diff := 0
	for i := range b {
		if b[i] != want[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("corruption changed %d bytes, want exactly 1", diff)
	}
}

func TestPartitionSeversAndHeals(t *testing.T) {
	addr, _ := sinkServer(t)
	inj := New(Config{Seed: 1})
	dial := inj.Dialer()
	conn, err := dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("ok")); err != nil {
		t.Fatalf("pre-partition write failed: %v", err)
	}

	inj.Partition(true)
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Error("write succeeded across a partition")
	}
	if _, err := dial(context.Background(), addr); err == nil {
		t.Error("dial succeeded across a partition")
	}
	if inj.Stats().Refusals == 0 {
		t.Error("partition refusals not counted")
	}

	inj.Partition(false)
	conn2, err := dial(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial after heal failed: %v", err)
	}
	if _, err := conn2.Write([]byte("back")); err != nil {
		t.Errorf("write after heal failed: %v", err)
	}
	conn2.Close()
}

func TestDropBlackholesBytes(t *testing.T) {
	addr, got := sinkServer(t)
	inj := New(Config{Seed: 3, DropProb: 1}) // swallow every write
	conn, err := inj.Dialer()(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	n, err := conn.Write([]byte("vanish"))
	if err != nil || n != 6 {
		t.Fatalf("blackholed write reported (%d, %v), want (6, nil)", n, err)
	}
	time.Sleep(50 * time.Millisecond)
	if len(got()) != 0 {
		t.Errorf("blackholed bytes arrived: %q", got())
	}
	if inj.Stats().Drops != 1 {
		t.Errorf("drops = %d, want 1", inj.Stats().Drops)
	}
}

// TestWrapListenerInjectsServerSide: a server-side connection wrapped with
// WrapConn carries the fault schedule too, so its writes can be blackholed.
func TestWrapListenerInjectsServerSide(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := New(Config{Seed: 5, DropProb: 1})
	defer inner.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		raw, err := inner.Accept()
		if err != nil {
			return
		}
		c := inj.WrapConn(raw)
		c.Write([]byte("dropped")) // server-side write is blackholed
		c.Close()
	}()
	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-done
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	buf := make([]byte, 16)
	if n, err := conn.Read(buf); err != io.EOF {
		t.Errorf("read got (%d, %v), want EOF after blackholed write", n, err)
	}
}

// TestDialerFromWrapsNonTCPTransport: faults ride on top of whatever
// transport the base dialer provides — here an in-memory pipe, the
// transport the load generator uses for 10^4+ clients.
func TestDialerFromWrapsNonTCPTransport(t *testing.T) {
	inj := New(Config{Seed: 3, DropProb: 1})
	var serverEnd net.Conn
	base := func(ctx context.Context, addr string) (net.Conn, error) {
		c, s := net.Pipe()
		serverEnd = s
		return c, nil
	}
	conn, err := inj.DialerFrom(base)(context.Background(), "mem://x")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	defer serverEnd.Close()

	// Every write is blackholed: the caller sees success, the pipe's far
	// end sees nothing (a read would block forever).
	if n, err := conn.Write([]byte("gone")); n != 4 || err != nil {
		t.Fatalf("blackholed write = (%d, %v)", n, err)
	}
	serverEnd.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 8)
	if n, err := serverEnd.Read(buf); err == nil {
		t.Errorf("far end received %d bytes despite DropProb=1", n)
	}
	if st := inj.Stats(); st.Conns != 1 || st.Drops != 1 {
		t.Errorf("stats = %+v, want 1 conn / 1 drop", st)
	}

	// Partition refuses new dials through the wrapped dialer too.
	inj.Partition(true)
	if _, err := inj.DialerFrom(base)(context.Background(), "mem://x"); err == nil {
		t.Error("partitioned dial succeeded")
	}
}
