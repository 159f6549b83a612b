package transfer

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := Request{ID: 0, Src: 0, Dst: 1, SizeGbits: 10, Arrival: 0, Deadline: NoDeadline}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	for _, bad := range []Request{
		{Src: 1, Dst: 1, SizeGbits: 10},
		{Src: 0, Dst: 1, SizeGbits: 0},
		{Src: 0, Dst: 1, SizeGbits: 10, Arrival: 5, Deadline: 3},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("expected error for %+v", bad)
		}
	}
}

func TestAdvanceCompletes(t *testing.T) {
	tr := NewTransfer(Request{ID: 1, Src: 0, Dst: 1, SizeGbits: 100})
	alloc := []PathRate{{Path: []int{0, 1}, Rate: 10}}
	sent := tr.Advance(alloc, 0, 5, 0)
	if sent != 50 || tr.Remaining != 50 || tr.Done {
		t.Errorf("after 5s: sent=%v remaining=%v done=%v", sent, tr.Remaining, tr.Done)
	}
	sent = tr.Advance(alloc, 5, 10, 1)
	if sent != 50 || !tr.Done {
		t.Errorf("final: sent=%v done=%v", sent, tr.Done)
	}
	// Completed mid-slot: 50 Gbit at 10 Gbps = 5s after t=5.
	if tr.FinishTime != 10 {
		t.Errorf("finish = %v, want 10", tr.FinishTime)
	}
}

func TestAdvanceZeroRate(t *testing.T) {
	tr := NewTransfer(Request{ID: 1, Src: 0, Dst: 1, SizeGbits: 100})
	if sent := tr.Advance(nil, 0, 10, 0); sent != 0 {
		t.Errorf("sent %v with no allocation", sent)
	}
	if tr.LastServed != -1 {
		t.Error("LastServed should not advance with zero rate")
	}
}

// TestMultiPathRate: a transfer sends at the sum of its paths' rates.
func TestMultiPathRate(t *testing.T) {
	tr := NewTransfer(Request{ID: 1, Src: 0, Dst: 1, SizeGbits: 100})
	alloc := []PathRate{
		{Path: []int{0, 1}, Rate: 10},
		{Path: []int{0, 2, 1}, Rate: 5},
	}
	if sent := tr.Advance(alloc, 0, 2, 0); sent != 30 {
		t.Errorf("sent %v in 2 s, want 30 (rate 15)", sent)
	}
}

func TestMetDeadline(t *testing.T) {
	tr := NewTransfer(Request{ID: 1, Src: 0, Dst: 1, SizeGbits: 10, Deadline: 2})
	alloc := []PathRate{{Path: []int{0, 1}, Rate: 10}}
	tr.Advance(alloc, 0, 1, 0)
	if !tr.Done {
		t.Fatal("should complete in 1s")
	}
	if !tr.MetDeadline(300) {
		t.Error("finished at t=1 with deadline slot 2 (end 900s): should be met")
	}
	late := NewTransfer(Request{ID: 2, Src: 0, Dst: 1, SizeGbits: 10, Deadline: 0})
	late.Advance(alloc, 500, 1, 1)
	if late.MetDeadline(300) {
		t.Error("finished at t=501 with deadline end 300: should be missed")
	}
	noDl := NewTransfer(Request{ID: 3, Src: 0, Dst: 1, SizeGbits: 10, Deadline: NoDeadline})
	noDl.Advance(alloc, 0, 1, 0)
	if noDl.MetDeadline(300) {
		t.Error("transfer without deadline can never 'meet' one")
	}
}

// TestSettle: only an arrived, unfinished transfer with a negligible residue
// settles, and it finishes at the start of the slot that settles it.
func TestSettle(t *testing.T) {
	tr := NewTransfer(Request{ID: 1, Src: 0, Dst: 1, SizeGbits: 10, Arrival: 2, Deadline: NoDeadline})
	tr.Remaining = negligibleGbits
	if tr.Settle(1, 300) {
		t.Fatal("settled before its arrival")
	}
	if !tr.Settle(3, 300) || !tr.Done || tr.Remaining != 0 || tr.FinishTime != 900 {
		t.Fatalf("settle at slot 3: %+v", tr)
	}
	if tr.Settle(4, 300) || tr.FinishTime != 900 {
		t.Fatal("a finished transfer settled again")
	}
	big := NewTransfer(Request{ID: 2, Src: 0, Dst: 1, SizeGbits: 2 * negligibleGbits, Deadline: NoDeadline})
	if big.Settle(0, 300) || big.Done {
		t.Fatal("settled a residue above negligibleGbits")
	}
}

// TestServe: the outage darkens the start of the slot, and only what is
// sent by the deadline slot counts toward it.
func TestServe(t *testing.T) {
	alloc := []PathRate{{Path: []int{0, 1}, Rate: 10}}
	tr := NewTransfer(Request{ID: 1, Src: 0, Dst: 1, SizeGbits: 1000, Deadline: 1})
	if sent := tr.Serve(alloc, 1, 10, 4); sent != 60 || tr.LastServed != 1 || tr.DeliveredByDeadline != 60 {
		t.Fatalf("slot 1 with a 4 s outage: sent %v, %+v", sent, tr)
	}
	if sent := tr.Serve(alloc, 2, 10, 0); sent != 100 || tr.DeliveredByDeadline != 60 {
		t.Fatalf("slot 2, past the deadline: sent %v, %+v", sent, tr)
	}
	if sent := tr.Serve(alloc, 3, 10, 20); sent != 0 || tr.LastServed != 3 {
		t.Fatalf("an outage longer than the slot sent %v: %+v", sent, tr)
	}
	short := NewTransfer(Request{ID: 2, Src: 0, Dst: 1, SizeGbits: 30, Deadline: NoDeadline})
	if sent := short.Serve(alloc, 2, 10, 4); sent != 30 || !short.Done || short.FinishTime != 27 {
		t.Fatalf("finishing after the outage: sent %v, %+v", sent, short)
	}
}

func newT(id int, rem float64, deadline, arrival int) *Transfer {
	tr := NewTransfer(Request{ID: id, Src: 0, Dst: 1, SizeGbits: rem, Arrival: arrival, Deadline: deadline})
	return tr
}

func TestOrderSJF(t *testing.T) {
	ts := []*Transfer{newT(0, 30, NoDeadline, 0), newT(1, 10, NoDeadline, 0), newT(2, 20, NoDeadline, 0)}
	Order(ts, SJF, 0, 0)
	if ts[0].ID != 1 || ts[1].ID != 2 || ts[2].ID != 0 {
		t.Errorf("SJF order = %d %d %d", ts[0].ID, ts[1].ID, ts[2].ID)
	}
}

func TestOrderLJF(t *testing.T) {
	ts := []*Transfer{newT(0, 30, NoDeadline, 0), newT(1, 10, NoDeadline, 0)}
	Order(ts, LJF, 0, 0)
	if ts[0].ID != 0 {
		t.Errorf("LJF first = %d", ts[0].ID)
	}
}

func TestOrderEDF(t *testing.T) {
	ts := []*Transfer{newT(0, 10, 9, 0), newT(1, 10, 3, 0), newT(2, 10, NoDeadline, 0)}
	Order(ts, EDF, 0, 0)
	if ts[0].ID != 1 || ts[1].ID != 0 || ts[2].ID != 2 {
		t.Errorf("EDF order = %d %d %d (no-deadline last)", ts[0].ID, ts[1].ID, ts[2].ID)
	}
}

func TestOrderFIFO(t *testing.T) {
	ts := []*Transfer{newT(0, 10, NoDeadline, 5), newT(1, 10, NoDeadline, 2)}
	Order(ts, FIFO, 6, 0)
	if ts[0].ID != 1 {
		t.Errorf("FIFO first = %d", ts[0].ID)
	}
}

func TestStarvationGuardPromotes(t *testing.T) {
	a := newT(0, 5, NoDeadline, 0) // small job, served recently
	a.LastServed = 9
	b := newT(1, 500, NoDeadline, 0) // big job, starved since slot 0
	b.LastServed = 0
	ts := []*Transfer{a, b}
	Order(ts, SJF, 10, 3)
	if ts[0].ID != 1 {
		t.Error("starved transfer should be promoted over SJF order")
	}
	// Without the guard, SJF puts the small one first.
	Order(ts, SJF, 10, 0)
	if ts[0].ID != 0 {
		t.Error("guard disabled: SJF should win")
	}
}

func TestOrderDeterministicTies(t *testing.T) {
	check := func(seed int64) bool {
		mk := func() []*Transfer {
			rng := rand.New(rand.NewSource(seed))
			var ts []*Transfer
			for i := 0; i < 10; i++ {
				ts = append(ts, newT(i, float64(rng.Intn(3)), NoDeadline, 0))
			}
			rng.Shuffle(len(ts), func(a, b int) { ts[a], ts[b] = ts[b], ts[a] })
			return ts
		}
		a, b := mk(), mk()
		Order(a, SJF, 0, 0)
		Order(b, SJF, 0, 0)
		for i := range a {
			if a[i].ID != b[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestActive(t *testing.T) {
	done := newT(0, 10, NoDeadline, 0)
	done.Done = true
	future := newT(1, 10, NoDeadline, 5)
	now := newT(2, 10, NoDeadline, 1)
	act := Active([]*Transfer{done, future, now}, 2)
	if len(act) != 1 || act[0].ID != 2 {
		t.Errorf("active = %v", act)
	}
}
