// Package tcp models TCP congestion control at flow granularity (AIMD
// with slow start), sufficient to reproduce the transport-level effects
// the paper observes on its testbed: the ~10% total-throughput dip during
// one-shot updates comes from TCP backing off on the circuits that went
// dark and then recovering, not from the optical outage alone (§5.4).
//
// The model is deliberately small: flows share a single bottleneck (the
// links Owan's allocator assigns are per-flow rate limits, so the only
// shared queue that matters during an update is the disrupted link), time
// advances in RTT rounds, and loss is synchronous when demand exceeds
// capacity.
package tcp

import (
	"fmt"
	"math"
)

// Flow is one TCP connection's congestion state, in MSS units.
type Flow struct {
	// Cwnd is the congestion window (segments).
	Cwnd float64
	// SSThresh is the slow-start threshold (segments).
	SSThresh float64
	// Blocked marks a flow whose path is down (it cannot send and times
	// out back to a minimal window).
	Blocked bool
}

// NewFlow returns a flow starting in slow start.
func NewFlow() *Flow {
	return &Flow{Cwnd: 1, SSThresh: math.Inf(1)}
}

// step advances one RTT: grow the window (slow start below ssthresh,
// congestion avoidance above), or halve on loss.
func (f *Flow) step(loss bool) {
	if f.Blocked {
		// Retransmission timeouts collapse the window.
		f.SSThresh = math.Max(2, f.Cwnd/2)
		f.Cwnd = 1
		return
	}
	if loss {
		f.SSThresh = math.Max(2, f.Cwnd/2)
		f.Cwnd = f.SSThresh // fast recovery (Reno-style, no timeout)
		return
	}
	if f.Cwnd < f.SSThresh {
		f.Cwnd *= 2 // slow start
	} else {
		f.Cwnd++ // congestion avoidance
	}
}

// Bottleneck simulates n flows over one shared link.
type Bottleneck struct {
	// CapacitySegments is how many segments the link carries per RTT.
	CapacitySegments float64
	Flows            []*Flow
}

// NewBottleneck creates a bottleneck with n fresh flows.
func NewBottleneck(capacitySegments float64, n int) (*Bottleneck, error) {
	if capacitySegments <= 0 || n <= 0 {
		return nil, fmt.Errorf("tcp: capacity and flow count must be positive")
	}
	b := &Bottleneck{CapacitySegments: capacitySegments}
	for i := 0; i < n; i++ {
		b.Flows = append(b.Flows, NewFlow())
	}
	return b, nil
}

// Offered returns the total window of unblocked flows.
func (b *Bottleneck) Offered() float64 {
	t := 0.0
	for _, f := range b.Flows {
		if !f.Blocked {
			t += f.Cwnd
		}
	}
	return t
}

// Goodput returns the segments delivered this RTT: the offered load capped
// by capacity.
func (b *Bottleneck) Goodput() float64 {
	return math.Min(b.Offered(), b.CapacitySegments)
}

// Step advances one RTT. When the offered load exceeds capacity, every
// unblocked flow sees loss (synchronized drop-tail behaviour — the worst
// case the paper's TCP traffic hits during one-shot updates).
func (b *Bottleneck) Step() {
	loss := b.Offered() > b.CapacitySegments
	for _, f := range b.Flows {
		f.step(loss)
	}
}

// Sample is one point of a goodput-versus-time curve, in RTT rounds.
type Sample struct {
	Round   int
	Goodput float64
}

// OutageRecovery simulates flows reaching steady state, then an outage of
// outageRounds (flows blocked: the one-shot dark window), then recovery.
// It returns the goodput timeline from just before the outage until
// recoveryRounds after it, which is the TCP-level version of the paper's
// Figure 10(b) one-shot curve.
func OutageRecovery(capacitySegments float64, flows, warmupRounds, outageRounds, recoveryRounds int) ([]Sample, error) {
	b, err := NewBottleneck(capacitySegments, flows)
	if err != nil {
		return nil, err
	}
	if warmupRounds <= 0 || outageRounds < 0 || recoveryRounds < 0 {
		return nil, fmt.Errorf("tcp: invalid round counts")
	}
	for i := 0; i < warmupRounds; i++ {
		b.Step()
	}
	var out []Sample
	round := 0
	emit := func() {
		out = append(out, Sample{Round: round, Goodput: b.Goodput()})
		round++
	}
	emit() // steady state, pre-outage
	for _, f := range b.Flows {
		f.Blocked = true
	}
	for i := 0; i < outageRounds; i++ {
		b.Step()
		emit()
	}
	for _, f := range b.Flows {
		f.Blocked = false
	}
	for i := 0; i < recoveryRounds; i++ {
		b.Step()
		emit()
	}
	return out, nil
}
