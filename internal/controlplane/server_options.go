package controlplane

import (
	"context"
	"fmt"
	"time"

	"owan/internal/core"
	"owan/internal/store"
)

// Server-side admission defaults. The shard count bounds admission
// parallelism (and rate-push fan-out); the queue depth bounds how many
// submissions may wait per shard before the controller starts shedding
// load with ErrCodeOverloaded.
const (
	DefaultSlotSeconds = 300 // the paper's 5-minute slot
	DefaultShards      = 4
	DefaultQueueDepth  = 1024
)

// Clock abstracts time for the server's deadlines so tests can pin it.
type Clock interface {
	Now() time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// ServerOption configures a Controller at NewServer time.
type ServerOption func(*serverOptions)

type serverOptions struct {
	cfg         core.Config
	haveCfg     bool
	slotSeconds float64
	maxClients  int
	shards      int
	queueDepth  int
	readTO      time.Duration
	writeTO     time.Duration
	clock       Clock

	// admitGate, when non-nil, stalls every shard worker before it drains
	// a batch until the channel yields. Test-only (set via withAdmitGate):
	// it makes "queue full" reproducible without racing the drain loop.
	admitGate chan struct{}
}

func defaultServerOptions() serverOptions {
	return serverOptions{
		slotSeconds: DefaultSlotSeconds,
		shards:      DefaultShards,
		queueDepth:  DefaultQueueDepth,
		readTO:      DefaultReadTimeout,
		writeTO:     DefaultWriteTimeout,
		clock:       systemClock{},
	}
}

// WithCoreConfig sets the optimizer configuration (topology, annealing
// knobs, scheduling policy). Required: NewServer fails without a network.
func WithCoreConfig(cfg core.Config) ServerOption {
	return func(o *serverOptions) { o.cfg = cfg; o.haveCfg = true }
}

// WithSlotSeconds sets the modeled slot duration in seconds (default
// DefaultSlotSeconds; demos use small values so transfers finish fast).
func WithSlotSeconds(s float64) ServerOption {
	return func(o *serverOptions) { o.slotSeconds = s }
}

// WithMaxClients caps concurrently registered client connections. A hello
// beyond the cap is refused with a typed ErrCodeOverloaded error (and a
// retry-after hint) instead of letting per-connection goroutines grow
// without bound. 0 (the default) means unlimited.
func WithMaxClients(n int) ServerOption {
	return func(o *serverOptions) { o.maxClients = n }
}

// WithShards sets the number of admission shards. Submissions hash by
// owning site onto a shard, each with its own bounded queue and worker
// that admits in batches under one lock acquisition; rate pushes fan out
// per shard the same way. 0 keeps the default.
func WithShards(n int) ServerOption {
	return func(o *serverOptions) {
		if n > 0 {
			o.shards = n
		}
	}
}

// WithQueueDepth bounds each admission shard's queue. When a shard's
// queue is full, further submissions draw ErrCodeOverloaded with a
// retry-after hint — explicit backpressure instead of unbounded memory
// growth. 0 keeps the default.
func WithQueueDepth(n int) ServerOption {
	return func(o *serverOptions) {
		if n > 0 {
			o.queueDepth = n
		}
	}
}

// WithReadTimeout sets the dead-client detector: a connection with no
// inbound frame (requests and heartbeat pings both count) for this long
// is closed. ≤0 disables.
func WithReadTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.readTO = d }
}

// WithWriteTimeout bounds every outbound frame, so one partitioned client
// with a full TCP buffer can never stall a push shard: the send fails,
// the connection is dropped, and the site is marked for resync. ≤0
// disables.
func WithWriteTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.writeTO = d }
}

// NewServer builds a controller against the replicated store (nil means a
// fresh in-process store), recovering any outstanding transfers a failed
// predecessor left behind. The context bounds the server's lifetime:
// cancelling it is equivalent to Close. Tuning is purely functional
// options; the only required one is WithCoreConfig. It has the same shape
// Dial gives the client.
func NewServer(ctx context.Context, st *store.Store, opts ...ServerOption) (*Controller, error) {
	o := defaultServerOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if !o.haveCfg || o.cfg.Net == nil {
		return nil, fmt.Errorf("controlplane: NewServer requires WithCoreConfig with a non-nil network")
	}
	if err := o.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("controlplane: %w", err)
	}
	if o.slotSeconds <= 0 {
		return nil, fmt.Errorf("controlplane: slot seconds must be positive (got %v)", o.slotSeconds)
	}
	if o.maxClients < 0 {
		return nil, fmt.Errorf("controlplane: max clients must be >= 0 (got %d)", o.maxClients)
	}
	return newController(ctx, st, o)
}
