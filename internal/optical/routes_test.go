package optical

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"owan/internal/graph"
	"owan/internal/topology"
)

// referenceRouteTables is the route-table builder as it stood before the
// tables learnt to repair themselves: one serial sweep, every pair searched
// from scratch through the allocating graph API, nothing indexed. It is the
// reference the repair differential holds withoutFiber (and, through it, the
// row-packed parallel cold build) to; a repair that wrongly kept its
// parent's reach masks differs from it in them.
func referenceRouteTables(net *topology.Network) *routeTables {
	ns := net.NumSites()
	rt := &routeTables{
		fiberGraph: net.FiberGraph(),
		pairDist:   make([][]float64, ns),
		pairPath:   make([][][]int, ns),
		pairAlts:   make([][][]fiberRoute, ns),
		inReach:    make([]bool, ns*ns),
	}
	var sc graph.Scratch
	for u := 0; u < ns; u++ {
		rt.pairDist[u] = rt.fiberGraph.ShortestDistances(u)
		rt.pairPath[u] = make([][]int, ns)
		rt.pairAlts[u] = make([][]fiberRoute, ns)
		for v := 0; v < ns; v++ {
			if u == v || math.IsInf(rt.pairDist[u][v], 1) {
				continue
			}
			paths := rt.fiberGraph.KShortestPathsScratch(&sc, u, v, kFiberPaths)
			for pi, p := range paths {
				ids := make([]int, len(p.Edges))
				for i, e := range p.Edges {
					ids[i] = e.ID
				}
				if pi == 0 {
					rt.pairPath[u][v] = ids
				} else if p.Weight <= net.ReachKm {
					rt.pairAlts[u][v] = append(rt.pairAlts[u][v], fiberRoute{ids: ids, km: p.Weight})
				}
			}
			rt.inReach[u*ns+v] = rt.pairDist[u][v] <= net.ReachKm && rt.pairPath[u][v] != nil
		}
	}
	rt.deriveReach(net) // moved to routes.go unchanged; it reads only inReach
	return rt
}

// sameTables fails the test unless got equals the reference build of net in
// every table a State reads.
func sameTables(t *testing.T, got *routeTables, net *topology.Network, where string) {
	t.Helper()
	want := referenceRouteTables(net)
	want.fiberOff, want.fiberPairs, want.tied = got.fiberOff, got.fiberPairs, got.tied
	if reflect.DeepEqual(got, want) {
		return
	}
	ns := net.NumSites()
	for u := 0; u < ns; u++ {
		for v := 0; v < ns; v++ {
			if got.pairDist[u][v] != want.pairDist[u][v] || !reflect.DeepEqual(got.pairPath[u][v], want.pairPath[u][v]) ||
				!reflect.DeepEqual(got.pairAlts[u][v], want.pairAlts[u][v]) || got.inReach[u*ns+v] != want.inReach[u*ns+v] {
				t.Fatalf("%s: pair %d->%d differs from the cold reference:\n got %v %v %v\nwant %v %v %v", where, u, v,
					got.pairDist[u][v], got.pairPath[u][v], got.pairAlts[u][v], want.pairDist[u][v], want.pairPath[u][v], want.pairAlts[u][v])
			}
		}
	}
	t.Fatalf("%s: derived tables (reach masks, regenerator reachability, fiber graph) differ from the cold reference", where)
}

// sameIndex fails the test unless got's repair index and tied set equal a
// cold build's: what the next repair in a chain will trust.
func sameIndex(t *testing.T, got *routeTables, net *topology.Network, where string) {
	t.Helper()
	cold := buildRouteTables(net)
	if !reflect.DeepEqual(got.fiberOff, cold.fiberOff) || !reflect.DeepEqual(got.fiberPairs, cold.fiberPairs) || !reflect.DeepEqual(got.tied, cold.tied) {
		t.Fatalf("%s: repaired index or tied set differs from a cold build's", where)
	}
}

// grid builds a w x h mesh in which every fiber has the same length, so
// almost every pair has several equally short routes.
func gridNetwork(w, h int, km float64) *topology.Network {
	n := &topology.Network{Name: "grid", ThetaGbps: topology.DefaultThetaGbps, ReachKm: topology.DefaultReachKm}
	for i := 0; i < w*h; i++ {
		n.Sites = append(n.Sites, topology.Site{ID: i, RouterPorts: 4, HasRouter: true})
	}
	add := func(a, b int) {
		n.Fibers = append(n.Fibers, topology.Fiber{ID: len(n.Fibers), A: a, B: b, LengthKm: km, Wavelengths: topology.DefaultWavelengths})
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				add(y*w+x, y*w+x+1)
			}
			if y+1 < h {
				add(y*w+x, (y+1)*w+x)
			}
		}
	}
	n.PlaceRegenerators(topology.DefaultRegenPool)
	return n
}

// parallelNetwork doubles every fiber of Internet2: each hop has two fibers
// of one length, so every route ties with its twins.
func parallelNetwork() *topology.Network {
	n := topology.Internet2(8)
	for _, f := range n.Fibers[:len(n.Fibers):len(n.Fibers)] {
		f.ID = len(n.Fibers)
		n.Fibers = append(n.Fibers, f)
	}
	return n
}

// clampedISP is an ISP instance in which topology.ISP's 50 km floor on fiber
// length applies to six fibers close enough together to form equal-length
// detours (found by search: most seeds clamp a few fibers yet tie nothing).
func clampedISP() *topology.Network { return topology.ISP(150, 8, 51) }

// TestRouteRepairDifferential pins withoutFiber to the retained cold builder:
// the repaired tables must equal what a from-scratch build on the reduced
// network produces, entry for entry and bit for bit. The cases run as
// parallel subtests; the reference build is most of their time.
func TestRouteRepairDifferential(t *testing.T) {
	// (a) Every single cut, disconnecting ones included: the far side's pairs
	// must go to +Inf / nil.
	for _, net := range []*topology.Network{topology.ISP(40, 10, 1), topology.Internet2(8), topology.InterDC(25, 5, 8, 2), topology.ISP(100, 10, 1)} {
		if testing.Short() && net.NumSites() > 64 {
			continue
		}
		base := buildRouteTables(net)
		const shards = 4
		for shard := 0; shard < shards; shard++ {
			t.Run("cut/"+net.Name+strconv.Itoa(net.NumSites())+"/"+strconv.Itoa(shard), func(t *testing.T) {
				t.Parallel()
				if shard == 0 {
					sameTables(t, base, net, "cold")
				}
				disconnecting := 0
				for i, f := range net.Fibers {
					cut, _ := net.WithoutFiber(f.ID)
					if !cut.FiberGraph().Connected() {
						disconnecting++
					}
					if i%shards != shard {
						continue
					}
					where := "less fiber " + strconv.Itoa(f.ID)
					got := base.withoutFiber(cut, f.ID)
					sameTables(t, got, cut, where)
					if i%8 == shard {
						sameIndex(t, got, cut, where)
					}
				}
				if net.NumSites() >= 40 && disconnecting == 0 {
					t.Error("no single cut disconnects it: the +Inf/nil case went untested")
				}
			})
		}
	}

	// (b) 300 chains of 1-8 cuts, each repair derived from the previous one.
	chains := func(net *topology.Network, from, to int) {
		t.Run("chain/"+net.Name+strconv.Itoa(net.NumSites())+"/"+strconv.Itoa(from), func(t *testing.T) {
			t.Parallel()
			base := buildRouteTables(net)
			for seed := from; seed < to; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)))
				cur, rt := net, base
				for step, steps := 0, 1+rng.Intn(8); step < steps; step++ {
					id := cur.Fibers[rng.Intn(len(cur.Fibers))].ID
					cur, _ = cur.WithoutFiber(id)
					rt = rt.withoutFiber(cur, id)
				}
				// Equal tables at the end of the chain, with an index equal
				// to a cold build's, mean every step before repaired from
				// sound tables and left sound ones.
				where := "chain seed " + strconv.Itoa(seed)
				sameTables(t, rt, cur, where)
				sameIndex(t, rt, cur, where)
			}
		})
	}
	chains(topology.ISP(40, 10, 1), 0, 100)
	chains(topology.ISP(40, 10, 1), 100, 200)
	chains(topology.InterDC(25, 5, 8, 2), 200, 250)
	chains(topology.Internet2(8), 250, 300)
	if !testing.Short() {
		chains(topology.ISP(200, 10, 1), 300, 303)
	}

	// (c) Tie-heavy fixtures: the tied set must be in play there, or the flag
	// that guards order-dependent answers is vacuous.
	for _, net := range []*topology.Network{gridNetwork(5, 4, 400), parallelNetwork(), clampedISP()} {
		if testing.Short() && net.NumSites() > 64 {
			continue
		}
		t.Run("ties/"+net.Name+strconv.Itoa(net.NumSites()), func(t *testing.T) {
			t.Parallel()
			base := buildRouteTables(net)
			if base.tied.Count() == 0 {
				t.Error("no tied pair on a fixture built to have them")
			}
			sameTables(t, base, net, "cold")
			for i, f := range net.Fibers {
				// On the big fixture: the clamped fibers and a sample.
				if net.NumSites() > 64 && f.LengthKm != 50 && i%40 != 0 {
					continue
				}
				cut, _ := net.WithoutFiber(f.ID)
				where := "less fiber " + strconv.Itoa(f.ID)
				got := base.withoutFiber(cut, f.ID)
				sameTables(t, got, cut, where)
				sameIndex(t, got, cut, where)
				// Two deep: the second repair starts from a repaired tied set.
				g := cut.Fibers[(i*7)%len(cut.Fibers)]
				cut2, _ := cut.WithoutFiber(g.ID)
				sameTables(t, got.withoutFiber(cut2, g.ID), cut2, where+" and "+strconv.Itoa(g.ID))
			}
		})
	}
}

// TestStateWithoutFiber pins the exported derivation path: a fresh empty
// state on a reduced copy of the network, on repaired tables cached under
// it, and a well-defined answer for a fiber that is not there.
func TestStateWithoutFiber(t *testing.T) {
	net := topology.ISP(40, 10, 1)
	s := NewState(net)
	if _, err := s.Provision(0, 1); err != nil {
		t.Fatal(err)
	}
	cut := s.WithoutFiber(net.Fibers[5].ID)
	if cut.Network() == net || len(cut.Network().Fibers) != len(net.Fibers)-1 {
		t.Fatalf("WithoutFiber kept %d of %d fibers", len(cut.Network().Fibers), len(net.Fibers))
	}
	if cut.Circuits() != 0 {
		t.Error("derived state carries the receiver's circuits")
	}
	sameTables(t, cut.rt, cut.Network(), "State.WithoutFiber")
	if again := NewState(cut.Network()); again.rt != cut.rt {
		t.Error("NewState on the derived network rebuilt its tables instead of finding them cached")
	}
	if same := s.WithoutFiber(-1); same.Network() != net || same.rt != s.rt || same.Circuits() != 0 {
		t.Error("WithoutFiber of an unknown fiber should be a fresh state on the same network")
	}
}
