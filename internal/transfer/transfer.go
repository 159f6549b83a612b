// Package transfer defines bulk-transfer requests and their in-flight state,
// plus the scheduling-policy orderings (SJF, EDF, FIFO, LJF) used by the
// allocation algorithms.
package transfer

import (
	"fmt"
	"math"
	"sort"
)

// NoDeadline marks a request without a deadline.
const NoDeadline = -1

// Request is a client-submitted bulk transfer: move SizeGbits of data from
// Src to Dst, optionally before Deadline (a slot index). This is the
// (src, dst, size, deadline) tuple of §3.1.
type Request struct {
	ID        int
	Src, Dst  int
	SizeGbits float64
	Arrival   int // slot index at which the request becomes known
	Deadline  int // slot index by whose end the transfer must finish; NoDeadline if none
}

// Validate checks basic sanity.
func (r Request) Validate() error {
	if r.Src == r.Dst {
		return fmt.Errorf("transfer %d: src == dst (%d)", r.ID, r.Src)
	}
	if r.SizeGbits <= 0 {
		return fmt.Errorf("transfer %d: nonpositive size %v", r.ID, r.SizeGbits)
	}
	if r.Deadline != NoDeadline && r.Deadline < r.Arrival {
		return fmt.Errorf("transfer %d: deadline %d before arrival %d", r.ID, r.Deadline, r.Arrival)
	}
	return nil
}

// PathRate is a routing path (site sequence, source first) with the rate in
// Gbps allocated on it.
type PathRate struct {
	Path []int
	Rate float64
}

// Transfer is the live state of a request inside the controller/simulator.
type Transfer struct {
	Request
	Remaining float64 // Gbits still to send
	Done      bool
	// FinishTime is the absolute completion time in seconds from the start
	// of the run (valid when Done).
	FinishTime float64
	// LastServed is the last slot in which the transfer received a nonzero
	// rate; used by the starvation guard.
	LastServed int
	// DeliveredByDeadline accumulates the gigabits sent during slots up to
	// and including the deadline slot (see Serve), for the
	// bytes-before-deadline metric.
	DeliveredByDeadline float64
}

// NewTransfer creates live state for a request.
func NewTransfer(r Request) *Transfer {
	return &Transfer{Request: r, Remaining: r.SizeGbits, LastServed: r.Arrival - 1}
}

// Advance applies dt seconds of transmission at the allocation alloc, whose
// total rate is the sum over its paths, and returns the number of gigabits
// sent. If the transfer completes mid-slot, FinishTime is interpolated
// within the slot (now is the slot start time).
func (t *Transfer) Advance(alloc []PathRate, now, dt float64, slot int) float64 {
	if t.Done {
		return 0
	}
	r := 0.0
	for _, pr := range alloc {
		r += pr.Rate
	}
	if r <= 0 {
		return 0
	}
	t.LastServed = slot
	sent := r * dt
	if sent >= t.Remaining {
		sent = t.Remaining
		t.FinishTime = now + t.Remaining/r
		t.Remaining = 0
		t.Done = true
		return sent
	}
	t.Remaining -= sent
	return sent
}

// negligibleGbits is the residue below which an arrived transfer counts as
// complete: allocators drop rates below their numerical floor, so without
// this cutoff a transfer could approach zero asymptotically and never finish.
const negligibleGbits = 1e-5

// Settle completes an arrived transfer whose remaining volume is negligible
// at the start of slot, finishing it at the slot's start, and reports
// whether it did. Both slot loops settle every arrived transfer before
// taking the slot's demand snapshot.
func (t *Transfer) Settle(slot int, slotSeconds float64) bool {
	if t.Done || t.Arrival > slot || t.Remaining > negligibleGbits {
		return false
	}
	t.Remaining = 0
	t.Done = true
	t.FinishTime = float64(slot) * slotSeconds
	return true
}

// Serve transmits one slot at the allocation alloc and returns the gigabits
// sent. The first outage seconds of the slot are dark (circuits in flux
// during an optical reconfiguration), so transmission starts after them.
// What is sent by the deadline slot is credited to DeliveredByDeadline.
func (t *Transfer) Serve(alloc []PathRate, slot int, slotSeconds, outage float64) float64 {
	sent := t.Advance(alloc, float64(slot)*slotSeconds+outage, math.Max(0, slotSeconds-outage), slot)
	if t.Deadline != NoDeadline && slot <= t.Deadline {
		t.DeliveredByDeadline += sent
	}
	return sent
}

// MetDeadline reports whether a completed transfer finished by the end of
// its deadline slot. slotSeconds converts the deadline slot to seconds.
func (t *Transfer) MetDeadline(slotSeconds float64) bool {
	if !t.Done || t.Deadline == NoDeadline {
		return false
	}
	return t.FinishTime <= float64(t.Deadline+1)*slotSeconds
}

// Policy orders transfers for greedy allocation.
type Policy int

// Scheduling policies (§3.2: "classic scheduling policies like SJF and EDF").
const (
	SJF  Policy = iota // shortest (remaining) job first
	EDF                // earliest deadline first
	FIFO               // arrival order
	LJF                // longest job first (for ablation)
)

func (p Policy) String() string {
	switch p {
	case SJF:
		return "sjf"
	case EDF:
		return "edf"
	case FIFO:
		return "fifo"
	case LJF:
		return "ljf"
	}
	return "unknown"
}

// Order sorts transfers by policy, in place, with a starvation guard: any
// transfer not served for at least starveSlots slots (relative to now) is
// promoted to the front, in order of how long it has starved. Ties fall back
// to request ID for determinism.
func Order(ts []*Transfer, p Policy, now, starveSlots int) {
	starved := func(t *Transfer) bool {
		return starveSlots > 0 && now-t.LastServed > starveSlots
	}
	sort.SliceStable(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		sa, sb := starved(a), starved(b)
		if sa != sb {
			return sa
		}
		if sa && sb && a.LastServed != b.LastServed {
			return a.LastServed < b.LastServed
		}
		switch p {
		case SJF:
			if a.Remaining != b.Remaining {
				return a.Remaining < b.Remaining
			}
		case LJF:
			if a.Remaining != b.Remaining {
				return a.Remaining > b.Remaining
			}
		case EDF:
			// Transfers whose deadline already passed cannot be saved;
			// they yield to transfers that can still make it (and then to
			// each other by deadline).
			da, db := a.Deadline, b.Deadline
			if da == NoDeadline {
				da = 1 << 30
			}
			if db == NoDeadline {
				db = 1 << 30
			}
			ea, eb := a.Deadline != NoDeadline && a.Deadline < now,
				b.Deadline != NoDeadline && b.Deadline < now
			if ea != eb {
				return eb
			}
			if da != db {
				return da < db
			}
		case FIFO:
			if a.Arrival != b.Arrival {
				return a.Arrival < b.Arrival
			}
		}
		return a.ID < b.ID
	})
}

// Active filters the transfers that have arrived by slot and are not done.
func Active(ts []*Transfer, slot int) []*Transfer {
	var out []*Transfer
	for _, t := range ts {
		if !t.Done && t.Arrival <= slot {
			out = append(out, t)
		}
	}
	return out
}
