package te

import (
	"math"
	"testing"

	"owan/internal/topology"
	"owan/internal/transfer"
)

// squareInput builds the paper's 4-router example with the two transfers of
// Figure 3 (F0: R0->R1, F1: R2->R3) at 10 units each, plus any extras.
func squareInput(extra ...*transfer.Transfer) *Input {
	ls := topology.NewLinkSet(4)
	ls.Add(0, 1, 1)
	ls.Add(0, 2, 1)
	ls.Add(1, 3, 1)
	ls.Add(2, 3, 1)
	ts := []*transfer.Transfer{
		transfer.NewTransfer(transfer.Request{ID: 0, Src: 0, Dst: 1, SizeGbits: 100, Deadline: transfer.NoDeadline}),
		transfer.NewTransfer(transfer.Request{ID: 1, Src: 2, Dst: 3, SizeGbits: 100, Deadline: transfer.NoDeadline}),
	}
	ts = append(ts, extra...)
	return &Input{Topo: ls, Theta: 10, Active: ts, Slot: 0, SlotSeconds: 10}
}

func totalRate(a map[int][]transfer.PathRate) float64 {
	s := 0.0
	for _, prs := range a {
		for _, pr := range prs {
			s += pr.Rate
		}
	}
	return s
}

func rateOf(a map[int][]transfer.PathRate, id int) float64 {
	s := 0.0
	for _, pr := range a[id] {
		s += pr.Rate
	}
	return s
}

// checkCapacity asserts no link is oversubscribed.
func checkCapacity(t *testing.T, in *Input, a map[int][]transfer.PathRate) {
	t.Helper()
	use := map[[2]int]float64{}
	for _, prs := range a {
		for _, pr := range prs {
			for _, lk := range pathLinks(pr.Path) {
				use[lk] += pr.Rate
			}
		}
	}
	for lk, u := range use {
		capacity := float64(in.Topo.Get(lk[0], lk[1])) * in.Theta
		if u > capacity+1e-6 {
			t.Errorf("link %v oversubscribed: %v > %v", lk, u, capacity)
		}
	}
}

func TestMaxFlowSaturates(t *testing.T) {
	in := squareInput()
	a := MaxFlow{}.Allocate(in)
	checkCapacity(t, in, a)
	// Both transfers demand 10 Gbps (100 Gbit / 10 s); both direct links
	// free: total 20.
	if got := totalRate(a); math.Abs(got-20) > 1e-6 {
		t.Errorf("total = %v, want 20", got)
	}
}

func TestMaxFlowRespectsDemandCap(t *testing.T) {
	in := squareInput()
	in.Active = in.Active[:1] // only F0, demand rate 10
	a := MaxFlow{}.Allocate(in)
	if got := rateOf(a, 0); got > 10+1e-6 {
		t.Errorf("rate %v exceeds demand 10", got)
	}
}

func TestMaxMinFractEqualizes(t *testing.T) {
	// Two transfers share one 10-unit link: each should get fraction 1/2
	// of its 10-demand.
	ls := topology.NewLinkSet(2)
	ls.Add(0, 1, 1)
	ts := []*transfer.Transfer{
		transfer.NewTransfer(transfer.Request{ID: 0, Src: 0, Dst: 1, SizeGbits: 100, Deadline: transfer.NoDeadline}),
		transfer.NewTransfer(transfer.Request{ID: 1, Src: 0, Dst: 1, SizeGbits: 100, Deadline: transfer.NoDeadline}),
	}
	in := &Input{Topo: ls, Theta: 10, Active: ts, Slot: 0, SlotSeconds: 10}
	a := MaxMinFract{}.Allocate(in)
	checkCapacity(t, in, a)
	r0, r1 := rateOf(a, 0), rateOf(a, 1)
	if r0 < 5-1e-6 || r1 < 5-1e-6 {
		t.Errorf("rates %v/%v, want both >= 5 (max-min)", r0, r1)
	}
}

func TestSWANFairAndFilling(t *testing.T) {
	// Transfer 0 shares a link with transfer 1, but transfer 1 has an
	// alternative: SWAN should keep fairness >= max-min level and then fill.
	in := squareInput()
	a := SWAN{}.Allocate(in)
	checkCapacity(t, in, a)
	if got := totalRate(a); math.Abs(got-20) > 1e-5 {
		t.Errorf("total = %v, want 20 (filling)", got)
	}
	if r := rateOf(a, 0); r < 10-1e-5 {
		t.Errorf("F0 rate = %v, want 10", r)
	}
}

func TestSWANAtLeastMaxMin(t *testing.T) {
	ls := topology.NewLinkSet(2)
	ls.Add(0, 1, 2) // 20 capacity
	ts := []*transfer.Transfer{
		transfer.NewTransfer(transfer.Request{ID: 0, Src: 0, Dst: 1, SizeGbits: 300, Deadline: transfer.NoDeadline}), // demand 30
		transfer.NewTransfer(transfer.Request{ID: 1, Src: 0, Dst: 1, SizeGbits: 100, Deadline: transfer.NoDeadline}), // demand 10
	}
	in := &Input{Topo: ls, Theta: 10, Active: ts, Slot: 0, SlotSeconds: 10}
	a := SWAN{}.Allocate(in)
	checkCapacity(t, in, a)
	// Max-min fraction: t* where 30t + 10t <= 20 -> t = 1/2. So F0 >= 15,
	// F1 >= 5 (modulo the 0.1% stage-2 relaxation); filling raises the
	// total to 20.
	if r0, r1 := rateOf(a, 0), rateOf(a, 1); r0 < 0.998*15 || r1 < 0.998*5 || math.Abs(r0+r1-20) > 1e-5 {
		t.Errorf("rates = %v/%v, want >=15/>=5 summing to 20", r0, r1)
	}
}

func TestTempusSpreadsOverDeadline(t *testing.T) {
	ls := topology.NewLinkSet(2)
	ls.Add(0, 1, 1) // 10 Gbps
	// 400 Gbit due in 4 slots (slots 0..3) of 10 s: target 10 Gbps per slot.
	ts := []*transfer.Transfer{
		transfer.NewTransfer(transfer.Request{ID: 0, Src: 0, Dst: 1, SizeGbits: 400, Deadline: 3}),
	}
	in := &Input{Topo: ls, Theta: 10, Active: ts, Slot: 0, SlotSeconds: 10}
	a := Tempus{}.Allocate(in)
	// Tempus paces: the per-slot target is 400/4/10 = 10 Gbps, achievable.
	if r := rateOf(a, 0); math.Abs(r-10) > 1e-5 {
		t.Errorf("rate = %v, want 10", r)
	}
}

func TestTempusSecondStageFills(t *testing.T) {
	ls := topology.NewLinkSet(2)
	ls.Add(0, 1, 1)
	// Small target (spread over 10 slots => 1 Gbps) but capacity is 10:
	// stage 2 should fill up to the demand cap.
	ts := []*transfer.Transfer{
		transfer.NewTransfer(transfer.Request{ID: 0, Src: 0, Dst: 1, SizeGbits: 100, Deadline: 9}),
	}
	in := &Input{Topo: ls, Theta: 10, Active: ts, Slot: 0, SlotSeconds: 10}
	a := Tempus{}.Allocate(in)
	if r := rateOf(a, 0); math.Abs(r-10) > 1e-5 {
		t.Errorf("rate = %v, want 10 (filled to demand)", r)
	}
}

func TestAmoebaAdmitsFeasible(t *testing.T) {
	ls := topology.NewLinkSet(2)
	ls.Add(0, 1, 1) // 10 Gbps, 10 s slots -> 100 Gbit per slot
	am := &Amoeba{}
	ts := []*transfer.Transfer{
		transfer.NewTransfer(transfer.Request{ID: 0, Src: 0, Dst: 1, SizeGbits: 150, Deadline: 1}),
	}
	in := &Input{Topo: ls, Theta: 10, Active: ts, Slot: 0, SlotSeconds: 10}
	a := am.Allocate(in)
	if am.Rejected(0) {
		t.Fatal("150 Gbit over 2 slots of 100 Gbit capacity is feasible")
	}
	if r := rateOf(a, 0); r < 10-1e-6 {
		t.Errorf("slot-0 rate = %v, want 10 (full link)", r)
	}
}

func TestAmoebaRejectsInfeasible(t *testing.T) {
	ls := topology.NewLinkSet(2)
	ls.Add(0, 1, 1)
	am := &Amoeba{}
	ts := []*transfer.Transfer{
		transfer.NewTransfer(transfer.Request{ID: 0, Src: 0, Dst: 1, SizeGbits: 500, Deadline: 1}),
	}
	in := &Input{Topo: ls, Theta: 10, Active: ts, Slot: 0, SlotSeconds: 10}
	am.Allocate(in)
	if !am.Rejected(0) {
		t.Error("500 Gbit cannot fit in 2 slots of 100 Gbit: must be rejected")
	}
}

func TestAmoebaReservationsPersist(t *testing.T) {
	ls := topology.NewLinkSet(2)
	ls.Add(0, 1, 1)
	am := &Amoeba{}
	t0 := transfer.NewTransfer(transfer.Request{ID: 0, Src: 0, Dst: 1, SizeGbits: 200, Deadline: 1})
	in0 := &Input{Topo: ls, Theta: 10, Active: []*transfer.Transfer{t0}, Slot: 0, SlotSeconds: 10}
	a0 := am.Allocate(in0)
	if r := rateOf(a0, 0); r < 10-1e-6 {
		t.Fatalf("slot 0 rate = %v", r)
	}
	// A second transfer arriving at slot 1 with deadline 1 should be
	// rejected: slot 1 is fully reserved by transfer 0.
	t0.Remaining = 100
	t1 := transfer.NewTransfer(transfer.Request{ID: 1, Src: 0, Dst: 1, SizeGbits: 100, Arrival: 1, Deadline: 1})
	in1 := &Input{Topo: ls, Theta: 10, Active: []*transfer.Transfer{t0, t1}, Slot: 1, SlotSeconds: 10}
	am.Allocate(in1)
	if !am.Rejected(1) {
		t.Error("transfer 1 should be rejected: capacity reserved by transfer 0")
	}
}

func TestRateOnlySingleShortestPath(t *testing.T) {
	in := squareInput()
	a := RateOnly{Policy: transfer.SJF}.Allocate(in)
	checkCapacity(t, in, a)
	for id, prs := range a {
		if len(prs) != 1 {
			t.Errorf("transfer %d uses %d paths, want 1", id, len(prs))
		}
	}
	// Direct paths exist for both: total 20, but no multipath beyond that.
	if got := totalRate(a); math.Abs(got-20) > 1e-6 {
		t.Errorf("total = %v, want 20", got)
	}
}

func TestRateRoutingUsesMultipath(t *testing.T) {
	// Single transfer wanting 20 on the square: rate-only gives 10 (one
	// path), rate+routing gives 20 (two paths). This is the Fig 10c gap.
	ls := topology.NewLinkSet(4)
	ls.Add(0, 1, 1)
	ls.Add(0, 2, 1)
	ls.Add(1, 3, 1)
	ls.Add(2, 3, 1)
	ts := []*transfer.Transfer{
		transfer.NewTransfer(transfer.Request{ID: 0, Src: 0, Dst: 1, SizeGbits: 200, Deadline: transfer.NoDeadline}),
	}
	in := &Input{Topo: ls, Theta: 10, Active: ts, Slot: 0, SlotSeconds: 10}
	ro := RateOnly{Policy: transfer.SJF}.Allocate(in)
	rr := RateRouting{Policy: transfer.SJF}.Allocate(in)
	if r := rateOf(ro, 0); math.Abs(r-10) > 1e-6 {
		t.Errorf("rate-only = %v, want 10", r)
	}
	if r := rateOf(rr, 0); math.Abs(r-20) > 1e-6 {
		t.Errorf("rate-routing = %v, want 20", r)
	}
}

func TestApproachesHandleEmptyInput(t *testing.T) {
	ls := topology.NewLinkSet(2)
	ls.Add(0, 1, 1)
	in := &Input{Topo: ls, Theta: 10, Active: nil, Slot: 0, SlotSeconds: 10}
	for _, ap := range []Approach{MaxFlow{}, MaxMinFract{}, SWAN{}, Tempus{}, &Amoeba{}, RateOnly{}, RateRouting{}} {
		a := ap.Allocate(in)
		if len(a) != 0 {
			t.Errorf("%s returned allocations for empty input", ap.Name())
		}
	}
}

func TestApproachesHandleDisconnected(t *testing.T) {
	ls := topology.NewLinkSet(4)
	ls.Add(0, 1, 1)
	ts := []*transfer.Transfer{
		transfer.NewTransfer(transfer.Request{ID: 0, Src: 2, Dst: 3, SizeGbits: 100, Deadline: transfer.NoDeadline}),
	}
	in := &Input{Topo: ls, Theta: 10, Active: ts, Slot: 0, SlotSeconds: 10}
	for _, ap := range []Approach{MaxFlow{}, MaxMinFract{}, SWAN{}, Tempus{}, &Amoeba{}, RateOnly{}, RateRouting{}} {
		a := ap.Allocate(in)
		if rateOf(a, 0) != 0 {
			t.Errorf("%s allocated to a disconnected transfer", ap.Name())
		}
	}
}

func TestCandidatePathsDeduplicated(t *testing.T) {
	in := squareInput()
	ps := candidatePaths(in)
	for i, t0 := range in.Active {
		for _, p := range ps[i] {
			if p[0] != t0.Src || p[len(p)-1] != t0.Dst {
				t.Errorf("path endpoints wrong: %v for %d->%d", p, t0.Src, t0.Dst)
			}
		}
	}
}

// Rejected reports whether a transfer failed admission (its deadline was
// deemed unmeetable on arrival).
func (a *Amoeba) Rejected(id int) bool { return a.rejected[id] }
