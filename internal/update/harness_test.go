package update

import (
	"math/rand"
	"slices"

	"owan/internal/alloc"
	"owan/internal/optical"
	"owan/internal/topology"
)

// Test and benchmark harness: generates update cases the way the simulator
// produces them — provision a desired topology through the optical layer,
// allocate routes greedily, perturb the topology and the demands, provision
// and allocate again — so the differential exercises the planner on the
// exact state shapes the per-slot pipeline feeds it, multipath routes and
// partial provisioning included.

// Scenario variants for generated cases.
const (
	scenBase    = iota // plain reconfiguration between two slots
	scenFailure        // new state provisioned after a fiber failure
	scenScarce         // spare wavelengths near zero: wavelength deadlocks
	scenDetour         // doctored blocked RemoveCircuit: victim detours fire
	numScen
)

type caseGen struct {
	net     *topology.Network
	opt     *optical.State
	failNet *topology.Network // net minus one fiber
	failOpt *optical.State
	base    *topology.LinkSet

	// The old side is identical across seeds of one size (same initial
	// topology, same optical layer): cache its provisioned form.
	oldCircuits map[[2]int]int
	oldFibers   map[[2]int][]int
	effA        *topology.LinkSet
}

func newCaseGen(sites int) *caseGen {
	g := &caseGen{}
	g.net = topology.ISP(sites, 8, 11)
	g.opt = optical.NewState(g.net)
	fn := *g.net
	fn.Fibers = slices.Delete(slices.Clone(g.net.Fibers), len(fn.Fibers)/2, len(fn.Fibers)/2+1)
	g.failNet = &fn
	g.failOpt = optical.NewState(g.failNet)
	g.base = topology.InitialTopology(g.net)
	g.effA = effective(g.opt, g.base)
	g.oldCircuits, g.oldFibers = snapshotCircuits(g.opt, g.effA)
	return g
}

// effective realizes ls on opt and returns its effective capacities.
func effective(opt *optical.State, ls *topology.LinkSet) *topology.LinkSet {
	eff := topology.NewLinkSet(ls.N)
	for _, l := range opt.ProvisionEffectiveEnum(ls) {
		eff.Add(l.U, l.V, l.Count)
	}
	return eff
}

func snapshotCircuits(opt *optical.State, eff *topology.LinkSet) (map[[2]int]int, map[[2]int][]int) {
	circuits := map[[2]int]int{}
	fibers := map[[2]int][]int{}
	for _, l := range eff.Links() {
		k := [2]int{l.U, l.V}
		circuits[k] = l.Count
		fibers[k] = opt.FiberPathIDs(l.U, l.V)
	}
	return circuits, fibers
}

// routesOf flattens an allocation into routes in deterministic id order.
func routesOf(res *alloc.Result) []Route {
	ids := make([]int, 0, len(res.Alloc))
	for id := range res.Alloc {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var rs []Route
	for _, id := range ids {
		for _, pr := range res.Alloc[id] {
			if pr.Rate > 0 {
				rs = append(rs, Route{TransferID: id, Path: pr.Path, Rate: pr.Rate})
			}
		}
	}
	return rs
}

// gen builds one (config, old, new) case. The old state is the cached
// initial slot; the new state applies a few random circuit moves (the
// elementary annealing reconfiguration), transfer progress and arrivals,
// then re-provisions and re-allocates — on the post-failure optical layer
// for scenFailure, and with spare wavelengths capped at 0–1 for scenScarce
// so the planner's deadlock fallback fires.
func (g *caseGen) gen(seed int64, scen int) (Config, *State, *State) {
	rng := rand.New(rand.NewSource(seed))
	n := g.net.NumSites()
	theta := g.net.ThetaGbps

	nd := 8 + rng.Intn(2*n)
	demands := make([]alloc.Demand, 0, nd)
	for i := 0; i < nd; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			dst = (dst + 1) % n
		}
		demands = append(demands, alloc.Demand{ID: i, Src: src, Dst: dst, RateGbps: 1 + 24*rng.Float64()})
	}
	resA := alloc.Greedy(g.effA, theta, demands)
	old := &State{Circuits: g.oldCircuits, CircuitFibers: g.oldFibers, Routes: routesOf(resA)}

	curB := g.base.Clone()
	for m, moves := 0, 2+rng.Intn(6); m < moves; m++ {
		links := curB.Links()
		if len(links) == 0 {
			break
		}
		l := links[rng.Intn(len(links))]
		curB.Add(l.U, l.V, -1)
		for {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				curB.Add(a, b, 1)
				break
			}
		}
	}
	optB, netB := g.opt, g.net
	if scen == scenFailure {
		optB, netB = g.failOpt, g.failNet
	}
	effB := effective(optB, curB)
	newCircuits, newFibers := snapshotCircuits(optB, effB)

	db := make([]alloc.Demand, 0, len(demands)+4)
	for _, d := range demands {
		if rng.Float64() < 0.25 {
			continue // finished during the slot
		}
		d.RateGbps *= 0.4 + rng.Float64()
		db = append(db, d)
	}
	for i, extra := 0, rng.Intn(4); i < extra; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			dst = (dst + 1) % n
		}
		db = append(db, alloc.Demand{ID: nd + i, Src: src, Dst: dst, RateGbps: 1 + 24*rng.Float64()})
	}
	resB := alloc.Greedy(effB, theta, db)
	newSt := &State{Circuits: newCircuits, CircuitFibers: newFibers, Routes: routesOf(resB)}

	// Spare wavelengths: φ minus what the old state holds, on the (possibly
	// reduced) fiber plant the update executes on.
	used := map[int]int{}
	for k, c := range old.Circuits {
		for _, fid := range old.CircuitFibers[k] {
			used[fid] += c
		}
	}
	free := map[int]int{}
	for _, fb := range netB.Fibers {
		f := fb.Wavelengths - used[fb.ID]
		if f < 0 {
			f = 0
		}
		if scen == scenScarce && f > 0 {
			f = rng.Intn(2)
		}
		free[fb.ID] = f
	}

	if scen == scenDetour {
		// Shrink the first old link carrying ≥2 circuits and pin a
		// persisting route across it at a rate only the old capacity can
		// carry. Its RemoveCircuit blocks on that load while nothing else
		// can free it, so the planner's victim fallback fires — a target
		// that stays infeasible, which is the only way the fallback
		// triggers (a feasible target always drains removable load first).
		for _, l := range g.effA.Links() {
			if l.Count < 2 {
				continue
			}
			k := [2]int{l.U, l.V}
			newSt.Circuits[k] = l.Count - 1
			if _, ok := newSt.CircuitFibers[k]; !ok {
				newSt.CircuitFibers[k] = g.oldFibers[k]
			}
			pinned := Route{TransferID: 1 << 20, Path: []int{l.U, l.V}, Rate: (float64(l.Count) - 0.5) * theta}
			old.Routes = append(old.Routes, pinned)
			newSt.Routes = append(newSt.Routes, pinned)
			break
		}
	}
	return Config{Theta: theta, FiberFree: free}, old, newSt
}
