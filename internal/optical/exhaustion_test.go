package optical

import (
	"math/rand"
	"slices"
	"testing"

	"owan/internal/topology"
)

// TestRegenRouteExhaustionProof is the per-query differential of the
// exhaustion proof in findRegenRoute: a State with the reach masks (mask
// Dijkstra, then exhaustedFrom, then Yen only when a feasible chain exists)
// must answer every route query with the hops and error of a sibling whose
// reach masks are nil (transit graph, shortest path and Yen on every query
// that needs regenerators). Paired states are loaded with dense random
// topologies, one circuit at a time in (U, V) order as the energy function
// provisions them, until provisioning exhausts; each success is applied to
// both. Every verdict of the proof is also held to feasibleChain, so a proof
// that drops arcs is caught even where Yen's six paths would have failed
// anyway. The random loads never make a chain depend on an alternate fiber
// route; alternateBridge does. The counts are made here, from the mask state
// before each query, so
// the test fails if the proof never decides a query or if Yen never finds a
// route past the unbuildable shortest path — either would leave the proof
// unchecked.
func TestRegenRouteExhaustionProof(t *testing.T) {
	type load struct {
		net  *topology.Network
		topo []*topology.LinkSet
	}
	var loads []load
	for ni, net := range []*topology.Network{topology.ISP(200, 10, 1), topology.ISP(100, 10, 1)} {
		n := net.NumSites()
		rng := rand.New(rand.NewSource(int64(ni) + 1))
		l := load{net: net}
		for round := 0; round < 2; round++ {
			ls := topology.NewLinkSet(n)
			for i := 0; i < 4*n; i++ {
				if u, v := rng.Intn(n), rng.Intn(n); u != v {
					ls.Add(u, v, 1+rng.Intn(4))
				}
			}
			l.topo = append(l.topo, ls)
		}
		loads = append(loads, l)
	}
	bridge, bridgeTopo := alternateBridge()
	loads = append(loads, load{net: bridge, topo: []*topology.LinkSet{bridgeTopo}})

	decided, yenWins := 0, 0
	for ni, ld := range loads {
		mask := NewState(ld.net)
		plain := NewState(ld.net)
		plain.reachMaskW = nil // the materialized reference
		for round, ls := range ld.topo {
			mask.Reset()
			plain.Reset()
			for _, l := range ls.AppendLinks(nil) {
				for k := 0; k < l.Count; k++ {
					proofRan, yenRan := false, false
					if _, lam := mask.segmentFeasible(l.U, l.V); lam < 0 {
						if hops, ok := mask.maskRoute(l.U, l.V); ok && !mask.routeBuildable(hops) {
							proofRan = true
							yenRan = !mask.exhaustedFrom(l.U, l.V)
							if chain := feasibleChain(mask, l.U, l.V); chain != yenRan {
								t.Fatalf("net %d round %d: exhaustedFrom(%d, %d) = %v, but a queue search finds a chain = %v", ni, round, l.U, l.V, !yenRan, chain)
							}
						}
					}
					want, werr := plain.findRegenRoute(l.U, l.V)
					want = slices.Clone(want)
					got, gerr := mask.findRegenRoute(l.U, l.V)
					if werr != gerr || !slices.Equal(want, got) {
						t.Fatalf("net %d round %d: route %d->%d = %v, %v; reference %v, %v", ni, round, l.U, l.V, got, gerr, want, werr)
					}
					if proofRan && !yenRan {
						decided++
					}
					if werr != nil {
						break
					}
					if yenRan {
						yenWins++
					}
					// Realizing a route can still fail when two of its
					// segments share a fiber; both states must fail alike.
					_, werr = plain.provision(l.U, l.V, false)
					if _, gerr = mask.provision(l.U, l.V, false); werr != gerr {
						t.Fatalf("net %d: provision %d->%d = %v; reference %v", ni, l.U, l.V, gerr, werr)
					}
					if werr != nil {
						break
					}
				}
			}
		}
	}
	if decided < 100 || yenWins < 1 {
		t.Fatalf("vacuous differential: the proof decided %d queries (want >= 100), Yen routed past the shortest path %d times (want >= 1)", decided, yenWins)
	}
	t.Logf("proof decided %d queries; Yen routed past the shortest path %d times", decided, yenWins)
}

// alternateBridge builds a five-site network, inside one mask word, and a
// topology whose last circuit, 3->4, can only be routed over a segment that
// the ALTERNATE fiber route of its pair serves. Sites 3 and 4 are out of
// reach of each other; site 0 (four regenerators, the lighter transit) and
// site 1 (two) each reach both. The topology first fills fiber 0-3, the only
// route 3->0, then fiber 1-4, the primary route 1->4, which leaves 1->4 its
// alternate 1-2-4 (site 2 has no regenerators). The shortest regenerator
// route 3-0-4 is then unbuildable and 3-1-4 is the one chain left: a proof
// that looked at primary routes alone would call the query exhausted.
func alternateBridge() (*topology.Network, *topology.LinkSet) {
	const waves = 2
	net := &topology.Network{Name: "alternate-bridge", ThetaGbps: 10, ReachKm: 1500}
	for i, regens := range []int{4, 2, 0, 0, 0} {
		net.Sites = append(net.Sites, topology.Site{ID: i, RouterPorts: 8, Regenerators: regens, HasRouter: true})
	}
	for i, f := range []struct{ a, b, km int }{{0, 3, 1000}, {0, 4, 1000}, {1, 3, 1100}, {1, 4, 1100}, {1, 2, 700}, {2, 4, 700}} {
		net.Fibers = append(net.Fibers, topology.Fiber{ID: i, A: f.a, B: f.b, LengthKm: float64(f.km), Wavelengths: waves})
	}
	ls := topology.NewLinkSet(len(net.Sites))
	ls.Add(0, 3, waves)
	ls.Add(1, 4, waves)
	ls.Add(3, 4, 1)
	return net, ls
}

// feasibleChain is the reference for exhaustedFrom: a queue search over the
// regenerator graph as findRegenRoute's materialized branch builds it (src,
// dst and every site with a spare regenerator; an arc wherever canReach
// holds) that follows only the arcs segmentFeasible finds a wavelength on.
func feasibleChain(s *State, src, dst int) bool {
	n := s.net.NumSites()
	seen := make([]bool, n)
	seen[src] = true
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for v := 0; v < n; v++ {
			if seen[v] || !(v == dst || s.regenFree[v] > 0) || !s.canReach(u, v) {
				continue
			}
			if _, l := s.segmentFeasible(u, v); l < 0 {
				continue
			}
			if v == dst {
				return true
			}
			seen[v] = true
			queue = append(queue, v)
		}
	}
	return false
}
