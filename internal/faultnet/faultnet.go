// Package faultnet is a deterministic fault-injection harness for
// net.Conn/net.Listener. An Injector wraps connections (dialed or
// accepted) and perturbs them according to a seeded schedule: probabilistic
// write delays, byte corruption, connection resets, silent drops
// (blackholing), and an explicit partition switch that severs every
// wrapped connection until healed.
//
// Determinism: every wrapped connection draws its fault decisions from its
// own PRNG, seeded by (Config.Seed, connection index). The decision
// sequence for a connection therefore depends only on the seed and that
// connection's own I/O pattern — never on how goroutines interleave across
// connections — so integration tests that kill controllers and partition
// clients behave reproducibly for a fixed seed.
package faultnet

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Config tunes the fault schedule. All probabilities are per-write (or
// per-read for read-side corruption); zero values disable that fault.
type Config struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// DelayProb delays a write by a deterministic duration in
	// (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds injected write delays (default 2ms when DelayProb
	// is set).
	MaxDelay time.Duration
	// CorruptProb flips one byte of a written frame in flight.
	CorruptProb float64
	// ReadCorruptProb flips one byte of received data (wire corruption as
	// seen by the reader).
	ReadCorruptProb float64
	// ResetProb abruptly closes the connection instead of writing
	// (connection reset from the peer's perspective).
	ResetProb float64
	// DropProb silently swallows a write: the caller sees success, the
	// peer sees nothing (one-way blackhole; heartbeats must notice).
	DropProb float64
}

// Stats counts injected faults (for asserting the harness actually bit).
type Stats struct {
	Conns        int
	Delays       int
	WriteCorrupt int
	ReadCorrupt  int
	Resets       int
	Drops        int
	Refusals     int // dials or writes refused while partitioned
}

// Injector owns a fault schedule and every connection wrapped under it.
type Injector struct {
	cfg Config

	mu          sync.Mutex
	nconn       int64
	partitioned bool
	conns       map[*Conn]struct{}
	stats       Stats
}

// New returns an injector for the schedule.
func New(cfg Config) *Injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	return &Injector{cfg: cfg, conns: map[*Conn]struct{}{}}
}

// Partition severs (true) or heals (false) the injector's network: active
// connections are closed immediately and new dials or writes fail until
// healed. This models a network partition between everything wrapped by
// this injector and the rest of the world.
func (i *Injector) Partition(severed bool) {
	i.mu.Lock()
	i.partitioned = severed
	var toClose []*Conn
	if severed {
		for c := range i.conns {
			toClose = append(toClose, c)
		}
	}
	i.mu.Unlock()
	for _, c := range toClose {
		c.Close()
	}
}

// Partitioned reports the current partition state.
func (i *Injector) Partitioned() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.partitioned
}

// Stats returns a snapshot of the injected-fault counters.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

// WrapConn wraps a single connection with the injector's fault schedule.
func (i *Injector) WrapConn(c net.Conn) *Conn {
	i.mu.Lock()
	idx := i.nconn
	i.nconn++
	i.stats.Conns++
	fc := &Conn{
		Conn: c,
		inj:  i,
		// Mix the connection index into the seed so each connection has
		// an independent, reproducible decision stream.
		rng: rand.New(rand.NewSource(i.cfg.Seed*1000003 + idx)),
	}
	i.conns[fc] = struct{}{}
	i.mu.Unlock()
	return fc
}

func (i *Injector) forget(c *Conn) {
	i.mu.Lock()
	delete(i.conns, c)
	i.mu.Unlock()
}

func (i *Injector) count(f func(*Stats)) {
	i.mu.Lock()
	f(&i.stats)
	i.mu.Unlock()
}

// DialerFrom wraps an arbitrary base dialer with the fault schedule, so
// faults can be injected on transports other than TCP — the load
// generator runs tens of thousands of clients over in-memory pipes and
// still exercises drops, corruption, and partitions this way. Dials fail
// while partitioned.
func (i *Injector) DialerFrom(base func(ctx context.Context, addr string) (net.Conn, error)) func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		if i.Partitioned() {
			i.count(func(s *Stats) { s.Refusals++ })
			return nil, fmt.Errorf("faultnet: partitioned")
		}
		c, err := base(ctx, addr)
		if err != nil {
			return nil, err
		}
		return i.WrapConn(c), nil
	}
}

// Conn is a net.Conn with scheduled faults.
type Conn struct {
	net.Conn
	inj *Injector

	mu  sync.Mutex // guards rng (Read and Write may race)
	rng *rand.Rand

	closeOnce sync.Once
}

func (c *Conn) Write(b []byte) (int, error) {
	if c.inj.Partitioned() {
		c.inj.count(func(s *Stats) { s.Refusals++ })
		c.Close()
		return 0, fmt.Errorf("faultnet: partitioned")
	}
	c.mu.Lock()
	var delay time.Duration
	var corruptAt int
	cfg := c.inj.cfg
	p := c.rng.Float64()
	switch {
	case p < cfg.ResetProb:
		c.mu.Unlock()
		c.inj.count(func(s *Stats) { s.Resets++ })
		c.Close()
		return 0, fmt.Errorf("faultnet: injected reset")
	case p < cfg.ResetProb+cfg.DropProb:
		c.mu.Unlock()
		c.inj.count(func(s *Stats) { s.Drops++ })
		return len(b), nil // blackhole: pretend it went out
	case p < cfg.ResetProb+cfg.DropProb+cfg.CorruptProb:
		corruptAt = 1 + c.rng.Intn(max(len(b), 1)) // 1-based; 0 = none
	}
	if cfg.DelayProb > 0 && c.rng.Float64() < cfg.DelayProb {
		delay = time.Duration(1 + c.rng.Int63n(int64(cfg.MaxDelay)))
	}
	c.mu.Unlock()

	if delay > 0 {
		c.inj.count(func(s *Stats) { s.Delays++ })
		time.Sleep(delay)
	}
	if corruptAt > 0 && len(b) > 0 {
		c.inj.count(func(s *Stats) { s.WriteCorrupt++ })
		mangled := append([]byte(nil), b...)
		mangled[corruptAt-1] ^= 0x55
		return c.Conn.Write(mangled)
	}
	return c.Conn.Write(b)
}

func (c *Conn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && c.inj.cfg.ReadCorruptProb > 0 {
		c.mu.Lock()
		hit := c.rng.Float64() < c.inj.cfg.ReadCorruptProb
		var at int
		if hit {
			at = c.rng.Intn(n)
		}
		c.mu.Unlock()
		if hit {
			c.inj.count(func(s *Stats) { s.ReadCorrupt++ })
			b[at] ^= 0x55
		}
	}
	if c.inj.Partitioned() {
		c.Close()
		return 0, fmt.Errorf("faultnet: partitioned")
	}
	return n, err
}

func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.inj.forget(c)
		err = c.Conn.Close()
	})
	return err
}
