package topology

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestInternet2Valid(t *testing.T) {
	n := Internet2(15)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.NumSites() != 9 {
		t.Errorf("sites = %d, want 9", n.NumSites())
	}
	if len(n.Fibers) != 12 {
		t.Errorf("fibers = %d, want 12", len(n.Fibers))
	}
	if n.TotalPorts() != 9*15 {
		t.Errorf("ports = %d", n.TotalPorts())
	}
}

func TestISPValid(t *testing.T) {
	n := ISP(40, 10, 1)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.NumSites() != 40 {
		t.Errorf("sites = %d", n.NumSites())
	}
	avgDeg := 2 * float64(len(n.Fibers)) / float64(n.NumSites())
	if avgDeg < 2.5 || avgDeg > 4.5 {
		t.Errorf("average fiber degree = %v, want irregular mesh ~3.2", avgDeg)
	}
}

func TestISPDeterministic(t *testing.T) {
	a, b := ISP(40, 10, 7), ISP(40, 10, 7)
	if len(a.Fibers) != len(b.Fibers) {
		t.Fatal("fiber count differs across identical seeds")
	}
	for i := range a.Fibers {
		if a.Fibers[i] != b.Fibers[i] {
			t.Fatalf("fiber %d differs: %+v vs %+v", i, a.Fibers[i], b.Fibers[i])
		}
	}
}

func TestInterDCValid(t *testing.T) {
	n := InterDC(25, 5, 8, 2)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Super cores have triple ports.
	if n.Sites[0].RouterPorts != 24 || n.Sites[10].RouterPorts != 8 {
		t.Errorf("super-core/leaf ports = %d/%d", n.Sites[0].RouterPorts, n.Sites[10].RouterPorts)
	}
	// Leaves are dual homed: 2 fibers each; ring has superCores fibers.
	if want := 5 + 2*20; len(n.Fibers) != want {
		t.Errorf("fibers = %d, want %d", len(n.Fibers), want)
	}
}

func TestSquareValid(t *testing.T) {
	n := Square()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegeneratorPlacementCoversReach(t *testing.T) {
	n := Internet2(15)
	// With 2000 km reach and the longest path SEAT->NEWY, some pairs exceed
	// reach so at least one concentration site must exist.
	total := 0
	for _, s := range n.Sites {
		total += s.Regenerators
	}
	if total == 0 {
		t.Error("no regenerators placed although some site pairs exceed optical reach")
	}
}

func TestCircuitLength(t *testing.T) {
	n := Internet2(15)
	// WASH-NEWY direct fiber is 330 km.
	if got := n.CircuitLengthKm(7, 8); got != 330 {
		t.Errorf("WASH-NEWY = %v, want 330", got)
	}
	// SEAT->NEWY must be over 2000 km (cross country).
	if got := n.CircuitLengthKm(0, 8); got < 2000 {
		t.Errorf("SEAT-NEWY = %v, want > 2000", got)
	}
}

func TestLinkSetBasics(t *testing.T) {
	ls := NewLinkSet(4)
	ls.Add(0, 1, 2)
	ls.Add(1, 0, 1) // canonicalized onto the same key
	if ls.Get(0, 1) != 3 || ls.Get(1, 0) != 3 {
		t.Errorf("get = %d, want 3", ls.Get(0, 1))
	}
	if ls.Degree(0) != 3 || ls.Degree(1) != 3 || ls.Degree(2) != 0 {
		t.Errorf("degrees = %d %d %d", ls.Degree(0), ls.Degree(1), ls.Degree(2))
	}
	ls.Add(0, 1, -3)
	if ls.Get(0, 1) != 0 {
		t.Errorf("after removal get = %d", ls.Get(0, 1))
	}
	if len(ls.Count) != 0 {
		t.Error("zero-count key not deleted")
	}
}

func TestLinkSetCloneIndependent(t *testing.T) {
	ls := NewLinkSet(3)
	ls.Add(0, 1, 2)
	c := ls.Clone()
	c.Add(0, 1, 5)
	if ls.Get(0, 1) != 2 {
		t.Error("clone mutated original")
	}
	if !ls.Equal(ls.Clone()) {
		t.Error("clone should equal original")
	}
}

func TestLinkSetDiff(t *testing.T) {
	a := NewLinkSet(4)
	a.Add(0, 1, 2)
	a.Add(2, 3, 1)
	b := NewLinkSet(4)
	b.Add(0, 1, 1)
	b.Add(1, 2, 2)
	// |2-1| + |1-0| + |0-2| = 1+1+2 = 4.
	if d := a.Diff(b); d != 4 {
		t.Errorf("diff = %d, want 4", d)
	}
	if a.Diff(a) != 0 {
		t.Error("self diff should be 0")
	}
}

func TestLinkSetLinksSorted(t *testing.T) {
	ls := NewLinkSet(5)
	ls.Add(3, 4, 1)
	ls.Add(0, 2, 1)
	ls.Add(0, 1, 1)
	links := ls.Links()
	for i := 1; i < len(links); i++ {
		a, b := links[i-1], links[i]
		if a.U > b.U || (a.U == b.U && a.V >= b.V) {
			t.Errorf("links not sorted: %+v", links)
		}
	}
}

func TestInitialTopologyRespectsPorts(t *testing.T) {
	for _, n := range []*Network{Internet2(15), ISP(40, 10, 3), InterDC(25, 5, 8, 4), Square()} {
		ls := InitialTopology(n)
		if v := ls.PortViolations(n); v != 0 {
			t.Errorf("%s: %d port violations", n.Name, v)
		}
		// Ports should be nearly saturated: every site with a fiber neighbor
		// that has spare ports should be connected.
		if ls.TotalCircuits() == 0 {
			t.Errorf("%s: empty initial topology", n.Name)
		}
		if !ls.Graph().Connected() {
			t.Errorf("%s: initial topology disconnected", n.Name)
		}
	}
}

func TestInitialTopologySquareMatchesPaper(t *testing.T) {
	// The square example of Figure 2(b): each router is connected to its two
	// fiber neighbors with one circuit each.
	ls := InitialTopology(Square())
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if ls.Get(pair[0], pair[1]) != 1 {
			t.Errorf("link %v = %d, want 1", pair, ls.Get(pair[0], pair[1]))
		}
	}
}

func TestPortViolationsDetected(t *testing.T) {
	n := Square() // 2 ports per site
	ls := NewLinkSet(4)
	ls.Add(0, 1, 3) // 3 circuits but only 2 ports at each end
	if v := ls.PortViolations(n); v != 2 {
		t.Errorf("violations = %d, want 2 (one excess at each endpoint)", v)
	}
}

func TestLinkSetDiffSymmetric(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *LinkSet {
			ls := NewLinkSet(6)
			for i := 0; i < 8; i++ {
				a, b := rng.Intn(6), rng.Intn(6)
				if a != b {
					ls.Add(a, b, 1+rng.Intn(3))
				}
			}
			return ls
		}
		a, b := mk(), mk()
		return a.Diff(b) == b.Diff(a) && (a.Diff(b) == 0) == a.Equal(b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesBadInputs(t *testing.T) {
	n := Internet2(15)
	n.Fibers[0].LengthKm = -1
	if err := n.Validate(); err == nil {
		t.Error("negative length not caught")
	}
	n = Internet2(15)
	n.ThetaGbps = 0
	if err := n.Validate(); err == nil {
		t.Error("zero theta not caught")
	}
	n = Internet2(15)
	n.Fibers = n.Fibers[:2] // disconnect
	if err := n.Validate(); err == nil {
		t.Error("disconnected fiber graph not caught")
	}
}

// TestWithoutFiber: the copy lacks exactly the named fiber, keeps the ids
// and order of the rest (fiber ids are keys elsewhere, not positions), and
// leaves the receiver alone; an unknown id is reported, not ignored.
func TestWithoutFiber(t *testing.T) {
	n := Internet2(15)
	before := append([]Fiber(nil), n.Fibers...)
	cut, ok := n.WithoutFiber(before[3].ID)
	if !ok || cut == n {
		t.Fatal("known fiber not removed")
	}
	want := append(append([]Fiber(nil), before[:3]...), before[4:]...)
	if !slices.Equal(cut.Fibers, want) {
		t.Errorf("fibers after the cut = %v, want %v", cut.Fibers, want)
	}
	if !slices.Equal(n.Fibers, before) {
		t.Error("WithoutFiber changed the receiver's fibers")
	}
	if cut.NumSites() != n.NumSites() || cut.ReachKm != n.ReachKm || cut.ThetaGbps != n.ThetaGbps {
		t.Error("WithoutFiber changed more than the fibers")
	}
	if same, ok := cut.WithoutFiber(before[3].ID); ok || same != cut {
		t.Error("removing an absent fiber should return the receiver and false")
	}
}
