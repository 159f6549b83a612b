package controlplane

import (
	"context"
	"net"
	"time"
)

// Default client tuning. The heartbeat interval must stay well under the
// controller's read timeout (DefaultReadTimeout) or idle clients are
// declared dead between beats.
const (
	DefaultHeartbeatInterval = 10 * time.Second
	DefaultBackoffBase       = 100 * time.Millisecond
	DefaultBackoffMax        = 5 * time.Second
	DefaultRPCTimeout        = 30 * time.Second
)

// Option configures a Client at Dial time.
type Option func(*options)

type options struct {
	site         int
	onRates      func([]WireRate)
	onDisconnect func(error)
	onResync     func(*WireSnapshot)
	heartbeat    time.Duration
	backoffBase  time.Duration
	backoffMax   time.Duration
	retryMax     int
	rpcTimeout   time.Duration
	dialer       func(ctx context.Context, addr string) (net.Conn, error)
	jitterSeed   int64
}

func defaultOptions() options {
	return options{
		heartbeat:   DefaultHeartbeatInterval,
		backoffBase: DefaultBackoffBase,
		backoffMax:  DefaultBackoffMax,
		rpcTimeout:  DefaultRPCTimeout,
		jitterSeed:  1,
		dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
	}
}

// WithSite sets the site id this client fronts (default 0).
func WithSite(site int) Option {
	return func(o *options) { o.site = site }
}

// WithOnRates registers the callback invoked with each per-slot rate
// allocation push. It runs on the client's read goroutine; keep it short.
func WithOnRates(f func([]WireRate)) Option {
	return func(o *options) { o.onRates = f }
}

// WithOnDisconnect registers a hook invoked once per lost connection with
// the error that killed it (read failure, frame-decode error, heartbeat
// timeout). The client reconnects automatically afterwards; the hook is
// for logging and metrics, not recovery.
func WithOnDisconnect(f func(error)) Option {
	return func(o *options) { o.onDisconnect = f }
}

// WithOnResync registers the callback invoked with the snapshot the
// controller replays on every (re)connect handshake (protocol v2): the
// site's pending transfers, their remaining sizes, and their idempotency
// tokens. A reconnecting or failed-over client rebuilds its local view
// from this in one round trip instead of resubmitting. Runs on the
// dialing goroutine before the connection goes live; keep it short.
func WithOnResync(f func(*WireSnapshot)) Option {
	return func(o *options) { o.onResync = f }
}

// WithHeartbeatInterval sets how often the client pings the controller.
// A connection with no inbound traffic for 3 intervals is declared dead
// and torn down (triggering reconnection). 0 disables heartbeats.
func WithHeartbeatInterval(d time.Duration) Option {
	return func(o *options) { o.heartbeat = d }
}

// WithBackoff sets the reconnection backoff: the first retry waits ~base,
// doubling per consecutive failure up to max, with ±50% jitter to avoid
// thundering herds after a controller failover.
func WithBackoff(base, max time.Duration) Option {
	return func(o *options) {
		if base > 0 {
			o.backoffBase = base
		}
		if max > 0 {
			o.backoffMax = max
		}
	}
}

// WithRetryMax caps consecutive failed reconnection attempts before the
// client gives up and fails all pending and future RPCs. 0 (the default)
// retries forever; per-RPC contexts still bound each call.
func WithRetryMax(n int) Option {
	return func(o *options) { o.retryMax = n }
}

// WithRPCTimeout sets the deadline applied to RPCs whose context carries
// none, and bounds the connection handshake. 0 keeps the default.
func WithRPCTimeout(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.rpcTimeout = d
		}
	}
}

// WithDialer replaces the TCP dialer. Tests use this to route connections
// through a faultnet.Injector.
func WithDialer(f func(ctx context.Context, addr string) (net.Conn, error)) Option {
	return func(o *options) {
		if f != nil {
			o.dialer = f
		}
	}
}
