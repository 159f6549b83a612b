package optical

import (
	"math/rand"
	"slices"
	"testing"

	"owan/internal/topology"
)

// deltaTestNets returns a mix of comfortable and scarce networks so the
// delta tests cover both the trusted path and every fallback flag: the
// benchmark-scale ISP40 exercises the trusted path on realistic geometry,
// and the regenerator-starved ISP (two regenerators per concentration
// site) forces the regenScarce gate and its near-empty-pool margin.
func deltaTestNets() []*topology.Network {
	regenStarved := topology.ISP(16, 8, 3)
	regenStarved.PlaceRegenerators(2)
	return []*topology.Network{
		topology.Internet2(6),
		topology.ISP(12, 6, 1),
		topology.ISP(20, 8, 2),
		topology.ISP(40, 10, 1),
		regenStarved,
		topology.Square(), // 4 wavelengths per fiber: always tight
	}
}

// occupancyDump serializes the mutable occupancy of a State so tests can
// assert bit-identical restoration.
func occupancyDump(s *State) ([]uint64, []int, int) {
	var waves []uint64
	for _, w := range s.fiberUse {
		waves = append(waves, w...)
	}
	return waves, append([]int(nil), s.regenFree...), s.nextID
}

func sameOccupancy(t *testing.T, ctx string, s *State, waves []uint64, regen []int, nextID int) {
	t.Helper()
	w2, r2, id2 := occupancyDump(s)
	if len(w2) != len(waves) {
		t.Fatalf("%s: wavelength word count changed: %d != %d", ctx, len(w2), len(waves))
	}
	for i := range waves {
		if w2[i] != waves[i] {
			t.Fatalf("%s: wavelength word %d differs: %#x != %#x", ctx, i, w2[i], waves[i])
		}
	}
	for i := range regen {
		if r2[i] != regen[i] {
			t.Fatalf("%s: regen pool at site %d differs: %d != %d", ctx, i, r2[i], regen[i])
		}
	}
	if id2 != nextID {
		t.Fatalf("%s: nextID differs: %d != %d", ctx, id2, nextID)
	}
}

// randomSwapDelta applies one random 2-circuit swap to a clone of base and
// returns the patched set plus the net removed/added lists ProvisionDelta
// takes. Returns ok=false when no valid swap was found.
func randomSwapDelta(rng *rand.Rand, base *topology.LinkSet) (*topology.LinkSet, []topology.Link, []topology.Link, bool) {
	links := base.Links()
	if len(links) < 2 {
		return nil, nil, nil, false
	}
	for try := 0; try < 64; try++ {
		a, b := links[rng.Intn(len(links))], links[rng.Intn(len(links))]
		u, v, p, q := a.U, a.V, b.U, b.V
		if rng.Intn(2) == 0 {
			p, q = q, p
		}
		if u == p || v == q {
			continue
		}
		if min(p, q) == u && max(p, q) == v && base.Get(u, v) < 2 {
			continue
		}
		cand := base.Clone()
		cand.Add(u, v, -1)
		cand.Add(p, q, -1)
		cand.Add(u, p, 1)
		cand.Add(v, q, 1)

		// Net deltas per touched pair.
		touched := map[[2]int]bool{}
		for _, pr := range [][2]int{{u, v}, {p, q}, {u, p}, {v, q}} {
			x, y := pr[0], pr[1]
			if x > y {
				x, y = y, x
			}
			touched[[2]int{x, y}] = true
		}
		var removed, added []topology.Link
		for pr := range touched {
			d := cand.Get(pr[0], pr[1]) - base.Get(pr[0], pr[1])
			if d < 0 {
				removed = append(removed, topology.Link{U: pr[0], V: pr[1], Count: -d})
			} else if d > 0 {
				added = append(added, topology.Link{U: pr[0], V: pr[1], Count: d})
			}
		}
		return cand, removed, added, true
	}
	return nil, nil, nil, false
}

// TestSnapshotMatchesProvisionEffective pins BuildSnapshot's provisioning
// decisions to the cold path: same effective capacities, same occupancy.
func TestSnapshotMatchesProvisionEffective(t *testing.T) {
	for _, net := range deltaTestNets() {
		s := NewState(net)
		ls := topology.InitialTopology(net)
		var snap Snapshot
		s.BuildSnapshot(&snap, ls)
		waves, regen, _ := occupancyDump(s)

		s2 := NewState(net)
		if eff := s2.ProvisionEffectiveEnum(ls); !slices.Equal(snap.EffLinks(), eff) {
			t.Fatalf("%s: snapshot effective links %v differ from ProvisionEffectiveEnum's %v", net.Name, snap.EffLinks(), eff)
		}
		w2, r2, _ := occupancyDump(s2)
		for i := range waves {
			if waves[i] != w2[i] {
				t.Fatalf("%s: snapshot occupancy differs from cold provisioning at word %d", net.Name, i)
			}
		}
		for i := range regen {
			if regen[i] != r2[i] {
				t.Fatalf("%s: regen pools differ from cold provisioning at site %d", net.Name, i)
			}
		}
	}
}

// TestProvisionDeltaRevertRestoresOccupancy is the satellite property test:
// across 100 random swap sequences, apply→revert must restore the full
// optical occupancy (wavelength bitsets, regenerator pools, id counter)
// bit-identically, trusted or not.
func TestProvisionDeltaRevertRestoresOccupancy(t *testing.T) {
	nets := deltaTestNets()
	var snap Snapshot
	var j Journal
	for seq := 0; seq < 100; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		net := nets[seq%len(nets)]
		s := NewState(net)
		base := topology.InitialTopology(net)
		// Random walk a few swaps away from the initial topology so the
		// snapshots differ across sequences.
		for k := 0; k < rng.Intn(4); k++ {
			if cand, _, _, ok := randomSwapDelta(rng, base); ok {
				base = cand
			}
		}
		s.BuildSnapshot(&snap, base)
		waves, regen, nextID := occupancyDump(s)

		for step := 0; step < 6; step++ {
			_, removed, added, ok := randomSwapDelta(rng, base)
			if !ok {
				continue
			}
			s.ProvisionDelta(&snap, removed, added, &j)
			s.RevertDelta(&j)
			sameOccupancy(t, net.Name, s, waves, regen, nextID)
		}
	}
}

// TestProvisionDeltaSteadyStateAllocs pins the delta evaluation's zero-alloc
// steady state: after warmup, an apply→revert cycle reuses the journal's
// buffers entirely.
func TestProvisionDeltaSteadyStateAllocs(t *testing.T) {
	net := topology.ISP(20, 8, 2)
	s := NewState(net)
	base := topology.InitialTopology(net)
	var snap Snapshot
	s.BuildSnapshot(&snap, base)
	rng := rand.New(rand.NewSource(1))
	_, removed, added, ok := randomSwapDelta(rng, base)
	if !ok {
		t.Fatal("no valid swap on the initial ISP20 topology")
	}
	var j Journal
	for i := 0; i < 3; i++ {
		s.ProvisionDelta(&snap, removed, added, &j)
		s.RevertDelta(&j)
	}
	if avg := testing.AllocsPerRun(50, func() {
		s.ProvisionDelta(&snap, removed, added, &j)
		s.RevertDelta(&j)
	}); avg != 0 {
		t.Fatalf("ProvisionDelta+RevertDelta allocates %v objects per cycle in steady state, want 0", avg)
	}
}

// TestProvisionDeltaTrustedMatchesCold: whenever ProvisionDelta declares a
// result trusted, the patched effective links must equal cold provisioning
// of the candidate exactly; untrusted results are allowed to diverge (the
// caller re-runs cold). Divergence while trusted is the one failure mode
// the delta path must never have.
func TestProvisionDeltaTrustedMatchesCold(t *testing.T) {
	var snap Snapshot
	var j Journal
	trusted, fallbacks := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nets := deltaTestNets()
		net := nets[int(seed)%len(nets)]
		s := NewState(net)
		cold := NewState(net)
		base := topology.InitialTopology(net)
		for k := 0; k < rng.Intn(5); k++ {
			if cand, _, _, ok := randomSwapDelta(rng, base); ok {
				base = cand
			}
		}
		s.BuildSnapshot(&snap, base)

		for step := 0; step < 4; step++ {
			cand, removed, added, ok := randomSwapDelta(rng, base)
			if !ok {
				continue
			}
			patch, ok2 := s.ProvisionDelta(&snap, removed, added, &j)
			if ok2 {
				trusted++
				got := topology.MergePatch(nil, snap.EffLinks(), patch)
				want := cold.ProvisionEffectiveEnum(cand)
				if len(got) != len(want) {
					t.Fatalf("net %s seed %d: trusted delta link count %d != cold %d", net.Name, seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("net %s seed %d: trusted delta diverged at link %d: %v != %v (patch %v)",
							net.Name, seed, i, got[i], want[i], patch)
					}
				}
			} else {
				fallbacks++
			}
			s.RevertDelta(&j)
		}
	}
	if trusted == 0 {
		t.Fatal("no trusted deltas across 300 seeds — the trust gate is vacuous")
	}
	if fallbacks == 0 {
		t.Fatal("no fallbacks across 300 seeds — the scarce-network coverage is vacuous")
	}
	t.Logf("trusted=%d fallbacks=%d", trusted, fallbacks)
}
