package core

import (
	"math/rand"
	"testing"

	"owan/internal/alloc"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// quickScaleEnergyCase builds the ISP quick-scale configuration (25 sites, 8
// ports — the scale the experiments package uses for fast figure runs) with
// a reproducible demand set.
func quickScaleEnergyCase() (*Owan, *topology.LinkSet, []alloc.Demand) {
	net := topology.ISP(25, 8, 1)
	o := newOwan(net, 1)
	rng := rand.New(rand.NewSource(2))
	var ts []*transfer.Transfer
	for i := 0; i < 100; i++ {
		s, d := rng.Intn(25), rng.Intn(25)
		if s == d {
			continue
		}
		ts = append(ts, transfer.NewTransfer(transfer.Request{
			ID: i, Src: s, Dst: d, SizeGbits: 5000, Deadline: transfer.NoDeadline,
		}))
	}
	return o, topology.InitialTopology(net), alloc.DemandsFromTransfers(ts, 300)
}

// TestEnergyMatchesPlanPath pins the lean energy evaluation (record-free
// provisioning + flat allocator) to the recording path the controller uses
// for its final answer: both must compute the same throughput for the same
// topology, on the initial topology and on random neighbors of it.
func TestEnergyMatchesPlanPath(t *testing.T) {
	o, s, demands := quickScaleEnergyCase()
	cur := s
	for i := 0; i < 40; i++ {
		lean := o.Energy(cur, demands)
		plan := o.opt.ProvisionTopology(cur)
		eff := plan.Effective(cur.N)
		ref := alloc.Greedy(eff, o.cfg.Net.ThetaGbps, demands).Throughput
		if lean != ref {
			t.Fatalf("step %d: lean energy %v != plan-path energy %v", i, lean, ref)
		}
		if n := o.ComputeNeighbor(cur); n != nil {
			cur = n
		}
	}
}

// TestEnergySteadyStateAllocs bounds the allocations of a full energy
// evaluation (optical realization + greedy allocation). A handful of map
// writes for the effective LinkSet remain; the per-candidate graph, queue,
// and path structures must not be reallocated.
func TestEnergySteadyStateAllocs(t *testing.T) {
	o, s, demands := quickScaleEnergyCase()
	o.Energy(s, demands) // warm the scratch buffers
	if avg := testing.AllocsPerRun(10, func() {
		o.Energy(s, demands)
	}); avg > 4 {
		t.Errorf("Energy allocates %v objects/op in steady state, want <= 4", avg)
	}
}

// BenchmarkEnergy measures one annealing energy evaluation on the ISP
// quick-scale topology — the inner loop of the search, executed thousands
// of times per slot.
func BenchmarkEnergy(b *testing.B) {
	o, s, demands := quickScaleEnergyCase()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Energy(s, demands)
	}
}

// ispScaleEnergyCase builds an ISP100-class energy case: a >64-site network,
// so the allocator and optical layer run on multi-word bitset rows.
func ispScaleEnergyCase(sites int) (*Owan, *topology.LinkSet, []alloc.Demand) {
	net := topology.ISP(sites, 10, 1)
	o := newOwan(net, 1)
	rng := rand.New(rand.NewSource(2))
	var ts []*transfer.Transfer
	for i := 0; i < 2*sites; i++ {
		s, d := rng.Intn(sites), rng.Intn(sites)
		if s == d {
			continue
		}
		ts = append(ts, transfer.NewTransfer(transfer.Request{
			ID: i, Src: s, Dst: d, SizeGbits: 5000, Deadline: transfer.NoDeadline,
		}))
	}
	return o, topology.InitialTopology(net), alloc.DemandsFromTransfers(ts, 300)
}

func benchEnergyScale(b *testing.B, sites int) {
	o, s, demands := ispScaleEnergyCase(sites)
	o.Energy(s, demands) // warm the scratch buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Energy(s, demands)
	}
}

// BenchmarkEnergyISP100 measures the energy evaluation past the 64-site
// one-word limit: two-word bitset rows in the allocator and in the optical
// layer's reach masks (DESIGN.md §9 has the measured numbers).
func BenchmarkEnergyISP100(b *testing.B) {
	benchEnergyScale(b, 100)
}

// BenchmarkEnergyISP200 extends the scaling curve to 200 sites (four-word
// rows).
func BenchmarkEnergyISP200(b *testing.B) {
	benchEnergyScale(b, 200)
}

// TestEnergyISP100SteadyStateAllocs holds the >64-site energy evaluation to
// the same allocation bound as the quick-scale one: the multi-word rows grow
// once and are reused — scale must not reintroduce per-candidate allocation.
func TestEnergyISP100SteadyStateAllocs(t *testing.T) {
	o, s, demands := ispScaleEnergyCase(100)
	o.Energy(s, demands) // warm the scratch buffers
	if avg := testing.AllocsPerRun(10, func() {
		o.Energy(s, demands)
	}); avg > 4 {
		t.Errorf("ISP100 Energy allocates %v objects/op in steady state, want <= 4", avg)
	}
}
