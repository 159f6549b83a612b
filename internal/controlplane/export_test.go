package controlplane

import (
	"fmt"
	"sort"
)

// Test-only options and accessors: production code neither sets these nor
// reads this state, but the tests pin timing and inspect the controller and
// client through them.

// WaitTransfer blocks until the stream for id finishes and returns the
// bytes sent.
func (a *Agent) WaitTransfer(id int) (int64, error) {
	a.mu.Lock()
	s, ok := a.streams[id]
	a.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("controlplane: unknown transfer %d", id)
	}
	<-s.done
	return s.sent, s.err
}

// ResyncPending returns the sites whose last rate push was dropped and
// that have not resynced since (sorted; for tests and operators).
func (c *Controller) ResyncPending() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.resyncNeeded))
	for s := range c.resyncNeeded {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// NextID returns the id the next submitted transfer will receive. After
// failover it has resumed past every recovered transfer, so ids stay
// unique across controller generations.
func (c *Controller) NextID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextID
}

// WithClock replaces the wall clock used for read/write deadlines (tests
// pin it to force deterministic timeouts).
func WithClock(c Clock) ServerOption {
	return func(o *serverOptions) {
		if c != nil {
			o.clock = c
		}
	}
}

// withAdmitGate is the unexported test hook behind serverOptions.admitGate.
func withAdmitGate(ch chan struct{}) ServerOption {
	return func(o *serverOptions) { o.admitGate = ch }
}

// WithJitterSeed seeds the backoff jitter source so tests can make retry
// timing reproducible.
func WithJitterSeed(seed int64) Option {
	return func(o *options) { o.jitterSeed = seed }
}
