package update

import (
	"owan/internal/optical"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// SlotStat records the consistent-update plan computed for one slot's
// reconfiguration. Slots that scheduled nothing (idle, or before the first
// schedule) carry a zero stat with Planned == false.
type SlotStat struct {
	// Planned marks slots where the planner actually ran.
	Planned bool
	// Rounds, Ops and Detours describe the consistent schedule; Seconds is
	// its wall-clock duration.
	Rounds  int
	Ops     int
	Detours int
	Seconds float64
	// MinGbps is the lowest throughput carried while the plan executes.
	MinGbps float64
	// Err marks slots whose transition had no consistent schedule (the
	// planner's deadlock refusal — e.g. mid-failure with an infeasible
	// target); the slot is still applied.
	Err bool
}

// Planner is the per-slot consistent-update planner of both slot loops,
// sim.Run and the live controller's Tick. It rebuilds the old/new update
// states in place (ping-pong, retained maps) and threads a persistent
// Scratch through the slots, so planning does not allocate in steady
// state. A Planner is not safe for concurrent use.
type Planner struct {
	opt     *optical.State
	scratch *Scratch
	states  [2]State
	flip    int // states[1-flip] is the previous slot's state
	used    map[int]int
	free    map[int]int
}

// NewPlanner returns a planner on net whose previous state is the topology
// initial, carrying no routes.
func NewPlanner(net *topology.Network, initial *topology.LinkSet) *Planner {
	p := &Planner{
		opt:     optical.NewState(net),
		scratch: NewScratch(),
		used:    map[int]int{},
		free:    map[int]int{},
	}
	prev := &p.states[1-p.flip]
	prev.Reset()
	prev.SetTopology(initial, p.opt.FiberPathIDs)
	return p
}

// Network returns the physical network the planner provisions on: the one it
// was built on, less every fiber reported to OnFiberFailure.
func (p *Planner) Network() *topology.Network { return p.opt.Network() }

// Previous returns the state the next Plan rolls out from (the last planned
// slot's target, or the initial topology); callers must not modify it.
func (p *Planner) Previous() *State { return &p.states[1-p.flip] }

// OnFiberFailure re-derives the planner's optical layer on the surviving
// fibers: circuits provisioned from here on take post-failure fiber routes,
// while the previous slot's state keeps the routes its circuits occupied.
// After a scheduler's cut of the same fiber on the same network, it lands on
// the network that cut repaired (optical.State.WithoutFiber).
func (p *Planner) OnFiberFailure(fiberID int) {
	p.opt = p.opt.WithoutFiber(fiberID)
}

// Plan computes the consistent-update schedule for this slot's transition to
// nextTopo carrying alloc, whose routes are taken in active's order, and
// rolls the new state over as the next slot's old state.
func (p *Planner) Plan(nextTopo *topology.LinkSet, active []*transfer.Transfer, alloc map[int][]transfer.PathRate) SlotStat {
	prev := &p.states[1-p.flip]
	next := &p.states[p.flip]
	next.Reset()
	next.SetTopology(nextTopo, p.opt.FiberPathIDs)
	for _, t := range active {
		for _, pr := range alloc[t.ID] {
			if pr.Rate > 0 {
				next.AppendRoute(t.ID, pr.Path, pr.Rate)
			}
		}
	}

	// Spare wavelengths per surviving fiber: φ minus what the previous
	// slot's circuits occupy.
	clear(p.used)
	for k, c := range prev.Circuits {
		for _, fid := range prev.CircuitFibers[k] {
			p.used[fid] += c
		}
	}
	clear(p.free)
	net := p.opt.Network()
	for _, fb := range net.Fibers {
		f := fb.Wavelengths - p.used[fb.ID]
		if f < 0 {
			f = 0
		}
		p.free[fb.ID] = f
	}

	stat := SlotStat{Planned: true}
	plan, err := p.scratch.BuildPlan(Config{Theta: net.ThetaGbps, FiberFree: p.free}, prev, next)
	if err != nil {
		stat.Err = true
	} else {
		stat.Rounds = len(plan.Rounds)
		stat.Ops = plan.NumOps()
		stat.Detours = plan.ForcedDetours
		stat.Seconds = plan.Seconds()
		stat.MinGbps = MinThroughput(p.scratch.Timeline(plan, prev))
	}
	p.flip = 1 - p.flip
	return stat
}
