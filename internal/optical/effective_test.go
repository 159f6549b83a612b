package optical

import (
	"math/rand"
	"slices"
	"testing"

	"owan/internal/topology"
)

// sameLinks asserts two (U, V)-sorted effective enumerations are equal.
func sameLinks(t *testing.T, ctx string, want, got []topology.Link) {
	t.Helper()
	if !slices.Equal(want, got) {
		t.Fatalf("%s: effective links %v, want %v", ctx, got, want)
	}
}

// TestProvisionEffectiveMatchesPlan pins the record-free provisioning mode
// to the recording one: for the same requested topology both must produce
// identical effective capacities, because provisioning decisions depend only
// on the wavelength/regenerator occupancy, never on the Circuit records.
// One State serves all ProvisionEffectiveEnum calls so scratch-reuse bugs
// (stale effective links, leftover transit graphs) cannot hide.
func TestProvisionEffectiveMatchesPlan(t *testing.T) {
	nets := []*topology.Network{
		topology.Internet2(15),
		topology.ISP(30, 8, 5),
		topology.Square(),
	}
	for ni, net := range nets {
		n := net.NumSites()
		lean := NewState(net)
		rng := rand.New(rand.NewSource(int64(ni)))
		cases := []*topology.LinkSet{topology.InitialTopology(net)}
		// Random topologies, including over-subscribed ones that exhaust
		// wavelengths (Built < Want) and long links that need regenerators.
		for c := 0; c < 8; c++ {
			ls := topology.NewLinkSet(n)
			for i := 0; i < 3+rng.Intn(3*n); i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				ls.Add(u, v, 1+rng.Intn(6))
			}
			cases = append(cases, ls)
		}
		for _, ls := range cases {
			want := NewState(net).ProvisionTopology(ls).Effective(n).AppendLinks(nil)
			got := lean.ProvisionEffectiveEnum(ls)
			sameLinks(t, "lean vs plan", want, got)
		}
	}
}

// TestProvisionEffectiveSteadyStateAllocs asserts the energy hot path stays
// (nearly) allocation-free: after warm-up, realizing a topology allocates
// nothing on the direct-segment fast path. Growing the scratch enumeration
// and rare regenerator-graph paths are the only permitted sources.
func TestProvisionEffectiveSteadyStateAllocs(t *testing.T) {
	net := topology.ISP(25, 8, 1)
	s := NewState(net)
	ls := topology.InitialTopology(net)
	s.ProvisionEffectiveEnum(ls) // warm the scratch buffers
	if avg := testing.AllocsPerRun(10, func() {
		s.ProvisionEffectiveEnum(ls)
	}); avg > 2 {
		t.Errorf("ProvisionEffectiveEnum allocates %v objects/op in steady state, want <= 2", avg)
	}
}

// BenchmarkProvisionTopology measures topology realization with circuit
// records on the quick-scale ISP network (the configuration the paper's
// figures use for search-quality experiments).
func BenchmarkProvisionTopology(b *testing.B) {
	net := topology.ISP(25, 8, 1)
	ls := topology.InitialTopology(net)
	s := NewState(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ProvisionTopology(ls)
	}
}

// BenchmarkProvisionEffective measures the record-free realization used by
// the annealing energy function.
func BenchmarkProvisionEffective(b *testing.B) {
	net := topology.ISP(25, 8, 1)
	ls := topology.InitialTopology(net)
	s := NewState(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ProvisionEffectiveEnum(ls)
	}
}

// BenchmarkProvisionEffectiveISP200Loaded measures the record-free
// realization on 200 sites under load: a fixed, seeded topology that spends
// every router port on random site pairs, most of them too far apart for one
// segment. Many circuits then need regenerators, and the regenerator routes
// run out of wavelengths, so findRegenRoute reaches its Yen fallback — the
// case the simulator's 200-site slots spend their provisioning time in.
func BenchmarkProvisionEffectiveISP200Loaded(b *testing.B) {
	net := topology.ISP(200, 10, 1)
	n := net.NumSites()
	free := make([]int, n)
	for i, site := range net.Sites {
		free[i] = site.RouterPorts
	}
	rng := rand.New(rand.NewSource(1))
	ls := topology.NewLinkSet(n)
	for i := 0; i < 100*n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v && free[u] > 0 && free[v] > 0 {
			ls.Add(u, v, 1)
			free[u]--
			free[v]--
		}
	}
	s := NewState(net)
	s.ProvisionEffectiveEnum(ls) // build the route tables and warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ProvisionEffectiveEnum(ls)
	}
}
