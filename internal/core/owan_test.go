package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"owan/internal/alloc"
	"owan/internal/topology"
	"owan/internal/transfer"
)

func newOwan(net *topology.Network, seed int64) *Owan {
	return New(Config{Net: net, Policy: transfer.SJF, StarveSlots: 3, Seed: seed})
}

func mkTransfers(reqs ...[3]int) []*transfer.Transfer {
	var ts []*transfer.Transfer
	for i, r := range reqs {
		ts = append(ts, transfer.NewTransfer(transfer.Request{
			ID: i, Src: r[0], Dst: r[1], SizeGbits: float64(r[2]), Deadline: transfer.NoDeadline,
		}))
	}
	return ts
}

func TestComputeNeighborPreservesPorts(t *testing.T) {
	net := topology.Internet2(15)
	o := newOwan(net, 1)
	s := topology.InitialTopology(net)
	degrees := make([]int, net.NumSites())
	for i := range degrees {
		degrees[i] = s.Degree(i)
	}
	for iter := 0; iter < 200; iter++ {
		n := o.ComputeNeighbor(s)
		if n == nil {
			t.Fatal("neighbor generation failed on a healthy topology")
		}
		for i := range degrees {
			if n.Degree(i) != degrees[i] {
				t.Fatalf("iteration %d: degree of %d changed %d -> %d", iter, i, degrees[i], n.Degree(i))
			}
		}
		if n.TotalCircuits() != s.TotalCircuits() {
			t.Fatalf("circuit count changed: %d -> %d", s.TotalCircuits(), n.TotalCircuits())
		}
		s = n
	}
}

func TestComputeNeighborIsSmallMove(t *testing.T) {
	net := topology.Internet2(15)
	o := newOwan(net, 2)
	s := topology.InitialTopology(net)
	for iter := 0; iter < 50; iter++ {
		n := o.ComputeNeighbor(s)
		if n == nil {
			t.Fatal("nil neighbor")
		}
		if d := s.Diff(n); d > 4 {
			t.Fatalf("neighbor differs by %d circuit moves, want <= 4", d)
		}
	}
}

func TestComputeNeighborNoSelfLinks(t *testing.T) {
	net := topology.Square()
	o := newOwan(net, 3)
	s := topology.InitialTopology(net)
	for iter := 0; iter < 100; iter++ {
		n := o.ComputeNeighbor(s)
		if n == nil {
			continue
		}
		for _, l := range n.Links() {
			if l.U == l.V {
				t.Fatal("self link created")
			}
		}
		s = n
	}
}

func TestComputeNeighborDegenerate(t *testing.T) {
	net := topology.Square()
	o := newOwan(net, 4)
	empty := topology.NewLinkSet(4)
	if n := o.ComputeNeighbor(empty); n != nil {
		t.Error("neighbor of empty topology should be nil")
	}
	one := topology.NewLinkSet(4)
	one.Add(0, 1, 1)
	if n := o.ComputeNeighbor(one); n != nil {
		t.Error("neighbor of single-circuit topology should be nil")
	}
}

func TestEnergyMotivatingExample(t *testing.T) {
	// Paper §2.2: with both R0 ports to R1 and both R2 ports to R3 (Plan C
	// topology), two 10-unit transfers R0->R1 and R2->R3 achieve 40 units of
	// throughput; the square topology achieves only 20.
	net := topology.Square()
	o := newOwan(net, 5)
	ts := mkTransfers([3]int{0, 1, 200}, [3]int{2, 3, 200})
	demands := alloc.DemandsFromTransfers(ts, 10)

	square := topology.InitialTopology(net)
	planC := topology.NewLinkSet(4)
	planC.Add(0, 1, 2)
	planC.Add(2, 3, 2)

	eSquare := o.Energy(square, demands)
	ePlanC := o.Energy(planC, demands)
	if eSquare != 20 {
		t.Errorf("square energy = %v, want 20", eSquare)
	}
	if ePlanC != 40 {
		t.Errorf("plan C energy = %v, want 40", ePlanC)
	}
}

func TestAnnealingFindsPlanC(t *testing.T) {
	// Starting from the square topology with the two parallel transfers,
	// the search should discover a topology with energy 40 (Plan C or an
	// equivalent rewiring).
	net := topology.Square()
	o := newOwan(net, 6)
	ts := mkTransfers([3]int{0, 1, 200}, [3]int{2, 3, 200})
	st := o.ComputeNetworkState(topology.InitialTopology(net), ts, 0, 10)
	if st.Stats.BestEnergy < 40-1e-9 {
		t.Errorf("best energy = %v, want 40 (found topo %v)", st.Stats.BestEnergy, st.Topology.Links())
	}
	if st.Stats.BestEnergy < st.Stats.InitialEnergy {
		t.Error("best energy below initial: search must never regress")
	}
}

func TestAnnealingNeverRegresses(t *testing.T) {
	check := func(seed int64) bool {
		net := topology.Internet2(8)
		o := newOwan(net, seed)
		rng := rand.New(rand.NewSource(seed))
		var ts []*transfer.Transfer
		for i := 0; i < 12; i++ {
			s, d := rng.Intn(9), rng.Intn(9)
			if s == d {
				continue
			}
			ts = append(ts, transfer.NewTransfer(transfer.Request{
				ID: i, Src: s, Dst: d, SizeGbits: 100 + rng.Float64()*5000, Deadline: transfer.NoDeadline,
			}))
		}
		cur := topology.InitialTopology(net)
		st := o.ComputeNetworkState(cur, ts, 0, 300)
		if st.Stats.BestEnergy+1e-9 < st.Stats.InitialEnergy {
			return false
		}
		// Port budgets hold on the result.
		return st.Topology.PortViolations(net) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	net := topology.Internet2(8)
	ts1 := mkTransfers([3]int{0, 8, 5000}, [3]int{1, 4, 3000}, [3]int{2, 6, 800})
	ts2 := mkTransfers([3]int{0, 8, 5000}, [3]int{1, 4, 3000}, [3]int{2, 6, 800})
	a := newOwan(net, 42).ComputeNetworkState(topology.InitialTopology(net), ts1, 0, 300)
	b := newOwan(net, 42).ComputeNetworkState(topology.InitialTopology(net), ts2, 0, 300)
	if !a.Topology.Equal(b.Topology) {
		t.Error("same seed produced different topologies")
	}
	if a.Stats.BestEnergy != b.Stats.BestEnergy {
		t.Error("same seed produced different energies")
	}
}

func TestChurnReported(t *testing.T) {
	net := topology.Square()
	o := newOwan(net, 7)
	ts := mkTransfers([3]int{0, 1, 200}, [3]int{2, 3, 200})
	cur := topology.InitialTopology(net)
	st := o.ComputeNetworkState(cur, ts, 0, 10)
	if st.Stats.Churn != cur.Diff(st.Topology) {
		t.Errorf("churn %d != diff %d", st.Stats.Churn, cur.Diff(st.Topology))
	}
}

func TestGreedySeparateBuildsDemandTopology(t *testing.T) {
	net := topology.Square()
	o := newOwan(net, 8)
	ts := mkTransfers([3]int{0, 1, 2000}, [3]int{2, 3, 2000})
	st := o.GreedySeparate(ts, 0, 10)
	// Demand is only on (0,1) and (2,3): the greedy should give each pair
	// both ports.
	if st.Topology.Get(0, 1) != 2 || st.Topology.Get(2, 3) != 2 {
		t.Errorf("greedy topology = %v", st.Topology.Links())
	}
	if st.Topology.PortViolations(net) != 0 {
		t.Error("port violations in greedy topology")
	}
}

func TestJointBeatsGreedyOnCouplingWorkload(t *testing.T) {
	// Figure 10(a): joint optimization beats separate optimization on
	// average. Owan operates slot after slot warm-starting from the
	// previous topology, so emulate several slots of stable heavy demand
	// and compare steady-state energy, averaged over workloads (a single
	// draw can tie: the greedy is near-optimal when demand pairs fit the
	// port budget exactly).
	ratioSum := 0.0
	const seeds = 3
	for seed := int64(1); seed <= seeds; seed++ {
		net := topology.ISP(20, 6, 3)
		rng := rand.New(rand.NewSource(seed))
		var ts []*transfer.Transfer
		for i := 0; i < 60; i++ {
			s, d := rng.Intn(20), rng.Intn(20)
			if s == d {
				continue
			}
			ts = append(ts, transfer.NewTransfer(transfer.Request{
				ID: i, Src: s, Dst: d, SizeGbits: 2000 + rng.Float64()*18000, Deadline: transfer.NoDeadline,
			}))
		}
		o := newOwan(net, seed*7)
		cur := topology.InitialTopology(net)
		var joint *NetworkState
		for slot := 0; slot < 8; slot++ {
			joint = o.ComputeNetworkState(cur, ts, slot, 300)
			cur = joint.Topology
		}
		greedy := o.GreedySeparate(ts, 0, 300)
		ratioSum += joint.Stats.BestEnergy / greedy.Stats.BestEnergy
	}
	if avg := ratioSum / seeds; avg < 1.05 {
		t.Errorf("joint/greedy average ratio = %v, want > 1.05", avg)
	}
}

func BenchmarkEnergyISP40(b *testing.B) {
	net := topology.ISP(40, 10, 1)
	o := newOwan(net, 1)
	rng := rand.New(rand.NewSource(2))
	var ts []*transfer.Transfer
	for i := 0; i < 150; i++ {
		s, d := rng.Intn(40), rng.Intn(40)
		if s == d {
			continue
		}
		ts = append(ts, transfer.NewTransfer(transfer.Request{
			ID: i, Src: s, Dst: d, SizeGbits: 5000, Deadline: transfer.NoDeadline,
		}))
	}
	demands := alloc.DemandsFromTransfers(ts, 300)
	s := topology.InitialTopology(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Energy(s, demands)
	}
}
