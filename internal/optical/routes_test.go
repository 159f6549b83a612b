package optical

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"owan/internal/bitset"
	"owan/internal/graph"
	"owan/internal/topology"
)

// referenceRouteTables is the route-table builder as it stood before the
// tables learnt to repair themselves: one serial sweep, every pair searched
// from scratch through the allocating graph API, nothing indexed, no bound in
// the k-shortest search — every pair's full k-shortest answer, filtered
// afterwards — and the regenerator reachability of referenceDeriveReach. It
// is the reference the differentials hold withoutFiber and the row-packed,
// reach-bounded parallel cold build to; a repair that wrongly kept its
// parent's reach masks differs from it in them.
//
// A pair its own distances put past the reach padded by graph.SelectSlack is
// stored bare, as the contract says — pastReach and no routes — and gets no
// k-shortest search, only its shortest path, which the builder returns beside
// the tables: shortest[u][v] is every ordered pair's shortest fiber path, the
// answer FiberPathIDs must give.
func referenceRouteTables(net *topology.Network) (rt *routeTables, shortest [][][]int) {
	ns := net.NumSites()
	rt = &routeTables{
		fiberGraph: net.FiberGraph(),
		pairDist:   make([][]float64, ns),
		pairPath:   make([][][]int, ns),
		pairAlts:   make([][][]fiberRoute, ns),
		inReach:    make([]bool, ns*ns),
	}
	shortest = make([][][]int, ns)
	ids := func(p *graph.Path) []int {
		if p == nil {
			return nil
		}
		ids := make([]int, len(p.Edges))
		for i, e := range p.Edges {
			ids[i] = e.ID
		}
		return ids
	}
	padded := net.ReachKm * (1 + graph.SelectSlack)
	var sc graph.Scratch
	for u := 0; u < ns; u++ {
		rt.pairDist[u] = rt.fiberGraph.ShortestDistances(u)
		rt.pairPath[u] = make([][]int, ns)
		rt.pairAlts[u] = make([][]fiberRoute, ns)
		shortest[u] = make([][]int, ns)
		for v := 0; v < ns; v++ {
			if u == v {
				continue
			}
			if rt.pairDist[u][v] > padded {
				rt.pairDist[u][v] = math.Inf(1)
				shortest[u][v] = ids(rt.fiberGraph.ShortestPathScratch(&sc, u, v))
				continue
			}
			if math.IsInf(rt.pairDist[u][v], 1) {
				continue
			}
			for pi, p := range rt.fiberGraph.KShortestPathsScratch(&sc, u, v, kFiberPaths) {
				if pi == 0 {
					rt.pairPath[u][v] = ids(p)
				} else if p.Weight <= net.ReachKm {
					rt.pairAlts[u][v] = append(rt.pairAlts[u][v], fiberRoute{ids: ids(p), km: p.Weight})
				}
			}
			shortest[u][v] = rt.pairPath[u][v]
			rt.inReach[u*ns+v] = rt.pairDist[u][v] <= net.ReachKm && rt.pairPath[u][v] != nil
		}
	}
	referenceDeriveReach(rt, net)
	return rt, shortest
}

// referenceDeriveReach is deriveReach as it stood before the regenerator
// reachability became a word-parallel search over the reach masks: the masks
// set bit by bit from inReach, then a byte-array BFS per source that scans
// every site of each one it expands. It reads only inReach and the sites'
// regenerator pools, so the differentials check the production search on cold
// builds and on every repair that re-derives reach.
func referenceDeriveReach(rt *routeTables, net *topology.Network) {
	ns := net.NumSites()
	rt.maskW = bitset.Words(ns)
	rt.reachMaskW = make(bitset.Set, ns*rt.maskW)
	for u := 0; u < ns; u++ {
		row := rt.reachMaskW[u*rt.maskW : (u+1)*rt.maskW]
		for v := 0; v < ns; v++ {
			if rt.inReach[u*ns+v] {
				row.Set(v)
			}
		}
	}
	rt.regenReach = make(bitset.Set, ns*rt.maskW)
	queue := make([]int, 0, ns)
	seen := make([]bool, ns)
	for u := 0; u < ns; u++ {
		row := rt.regenReach[u*rt.maskW : (u+1)*rt.maskW]
		clear(seen)
		seen[u] = true
		queue = append(queue[:0], u)
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for v := 0; v < ns; v++ {
				if seen[v] || !rt.inReach[x*ns+v] {
					continue
				}
				seen[v] = true
				row.Set(v)
				if net.Sites[v].Regenerators > 0 {
					queue = append(queue, v)
				}
			}
		}
	}
}

// sameTables fails the test unless got equals the reference build of net in
// every table a State reads, stores nothing for a pair the reference leaves
// bare — no route, no index entry, no tie flag — and answers fiberPath with
// the reference's shortest path for every ordered pair.
func sameTables(t *testing.T, got *routeTables, net *topology.Network, where string) {
	t.Helper()
	want, shortest := referenceRouteTables(net)
	want.fiberOff, want.fiberPairs, want.tied, want.far = got.fiberOff, got.fiberPairs, got.tied, got.far
	ns := net.NumSites()
	if !reflect.DeepEqual(got, want) {
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
	bare := func(p int) bool { return math.IsInf(want.pairDist[p/ns][p%ns], 1) }
	for _, p := range got.fiberPairs {
		if bare(int(p)) {
			t.Fatalf("%s: pair %d->%d has no route yet is in the repair index", where, p/int32(ns), p%int32(ns))
		}
	}
	got.tied.ForEach(func(p int) {
		if bare(p) {
			t.Fatalf("%s: pair %d->%d has no route yet is tied", where, p/ns, p%ns)
		}
	})
	for u := 0; u < ns; u++ {
		for v := 0; v < ns; v++ {
			if p := got.fiberPath(u, v); !reflect.DeepEqual(p, shortest[u][v]) {
				t.Fatalf("%s: fiberPath %d->%d = %v, the reference's shortest path is %v", where, u, v, p, shortest[u][v])
			}
		}
	}
}

// askAll asks rt for the shortest fiber path of every ordered pair, so a
// repair derived from it starts from tables whose on-demand paths are all
// built: one that carried them over would answer with the parent's paths.
func askAll(rt *routeTables) {
	ns := len(rt.pairPath)
	for u := 0; u < ns; u++ {
		for v := 0; v < ns; v++ {
			rt.fiberPath(u, v)
		}
	}
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
// At the default 2000 km reach every pair with such a detour is past reach,
// where the tables stop computing alternates, and nothing is tied; at 5000 km
// 167 of its 248 tied pairs are in reach and 29 % of pairs are still past it,
// so the fixture exercises ties and the reach bound together.
func clampedISP() *topology.Network {
	n := topology.ISP(150, 8, 51)
	n.ReachKm = 5000
	return n
}

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
		askAll(base)
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
					askAll(rt)
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

// TestRouteTablesReachSweep holds the reach-bounded build to the retained
// unbounded builder across optical reaches, from one where nearly every pair
// is past reach (primaries only, no spur round) to one where none is (the
// bound never bites): cold tables on every network, and on all but ISP200 a
// sample of repairs with their index checked against a cold build's.
func TestRouteTablesReachSweep(t *testing.T) {
	builds := []func() *topology.Network{
		func() *topology.Network { return topology.Internet2(8) },
		func() *topology.Network { return topology.InterDC(25, 5, 8, 2) },
		func() *topology.Network { return topology.ISP(40, 10, 1) },
		func() *topology.Network { return topology.ISP(100, 10, 1) },
	}
	if !testing.Short() {
		builds = append(builds, func() *topology.Network { return topology.ISP(200, 10, 1) })
	}
	for ri, reach := range []float64{300, 1000, 2000, 1e9} {
		for _, build := range builds {
			net := build()
			net.ReachKm = reach
			t.Run(net.Name+strconv.Itoa(net.NumSites())+"/reach"+strconv.FormatFloat(reach, 'g', -1, 64), func(t *testing.T) {
				t.Parallel()
				base := buildRouteTables(net)
				sameTables(t, base, net, "cold")
				if net.NumSites() > 100 {
					return
				}
				step := 8
				if net.NumSites() > 64 {
					step = 32
				}
				for i, f := range net.Fibers {
					if i%step != ri {
						continue
					}
					cut, _ := net.WithoutFiber(f.ID)
					where := "less fiber " + strconv.Itoa(f.ID)
					got := base.withoutFiber(cut, f.ID)
					sameTables(t, got, cut, where)
					sameIndex(t, got, cut, where)
				}
			})
		}
	}
}

// TestRouteTablesDieWithNetwork pins the tables' lifetime to their
// network's: a live network's second NewState reuses its tables, and once a
// network is unreachable a collection frees them — cold tables while a
// network repaired from them lives on, then the repaired ones — so nothing
// global holds a table.
func TestRouteTablesDieWithNetwork(t *testing.T) {
	freed := make(chan struct{}, 1)
	onFree := func(*routeTables) { freed <- struct{}{} }
	awaitFree := func(what string) {
		t.Helper()
		for i := 0; i < 100; i++ {
			runtime.GC()
			select {
			case <-freed:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		t.Fatalf("%s still held after 100 collections", what)
	}

	net := topology.ISP(40, 10, 1)
	s := NewState(net)
	if NewState(net).rt != s.rt {
		t.Fatal("a second NewState on a live network rebuilt its tables")
	}
	cut := s.WithoutFiber(net.Fibers[3].ID).Network()
	runtime.SetFinalizer(s.rt, onFree)
	net, s = nil, nil
	awaitFree("the tables of an unreachable network")

	rt := NewState(cut).rt
	if NewState(cut).rt != rt {
		t.Fatal("a second NewState on a live reduced network rebuilt its tables")
	}
	runtime.SetFinalizer(rt, onFree)
	cut, rt = nil, nil
	awaitFree("the repaired tables of an unreachable network")
}

// TestFiberPathIDsStable pins the contract update.State.SetTopology relies
// on: FiberPathIDs returns the same backing array on every call for a pair,
// for as long as the tables live — for a stored primary and for a path built
// on demand past the reach alike, when callers race to the first request
// (run under -race by make race), and after a repaired copy of the tables has
// been derived and asked in turn.
func TestFiberPathIDsStable(t *testing.T) {
	net := topology.ISP(40, 10, 1)
	ns := net.NumSites()
	s := NewState(net)
	sameArray := func(a, b []int) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }

	const callers = 4
	got := make([][][]int, callers)
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := s
			if c%2 == 1 {
				st = NewState(net) // another state on the same tables
			}
			got[c] = make([][]int, ns*ns)
			for i := range got[c] {
				p := (i + c*ns*ns/callers) % (ns * ns) // each caller starts elsewhere
				got[c][p] = st.FiberPathIDs(p/ns, p%ns)
			}
		}()
	}
	wg.Wait()

	cut := s.WithoutFiber(net.Fibers[3].ID)
	for p := 0; p < ns*ns; p++ {
		cut.FiberPathIDs(p/ns, p%ns)
	}
	bare := 0
	for p := 0; p < ns*ns; p++ {
		u, v := p/ns, p%ns
		first := got[0][p]
		for c := 1; c < callers; c++ {
			if !sameArray(first, got[c][p]) {
				t.Fatalf("pair %d->%d: concurrent callers got different slices %v and %v", u, v, first, got[c][p])
			}
		}
		if again := s.FiberPathIDs(u, v); !sameArray(first, again) {
			t.Fatalf("pair %d->%d: a repeated call returned another slice", u, v)
		}
		if again := cut.FiberPathIDs(u, v); !sameArray(again, cut.FiberPathIDs(u, v)) {
			t.Fatalf("pair %d->%d: a repeated call on the repaired tables returned another slice", u, v)
		}
		if len(first) > 0 && s.rt.pairPath[u][v] == nil {
			bare++
		}
	}
	if bare == 0 {
		t.Fatal("no pair is past the padded reach: the on-demand paths went untested")
	}
}

// TestStateWithoutFiber pins the exported derivation path: a fresh empty
// state on a reduced copy of the network, on repaired tables kept with it,
// the same copy for every state on the network cut at that fiber, and a
// well-defined answer for a fiber that is not there.
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
		t.Error("NewState on the derived network rebuilt its tables instead of reusing the ones kept with it")
	}
	if other := NewState(net).WithoutFiber(net.Fibers[5].ID); other.Network() != cut.Network() || other.rt != cut.rt {
		t.Error("a second state cut at the same fiber repaired its own copy instead of sharing the first")
	}
	if same := s.WithoutFiber(-1); same.Network() != net || same.rt != s.rt || same.Circuits() != 0 {
		t.Error("WithoutFiber of an unknown fiber should be a fresh state on the same network")
	}
}
