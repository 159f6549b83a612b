package sim

import (
	"owan/internal/optical"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/update"
)

// UpdateStat records the consistent-update plan computed for one slot's
// reconfiguration (Config.PlanUpdates). Slots that scheduled nothing (idle,
// or before the first schedule) carry a zero stat with Planned == false.
type UpdateStat struct {
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
	// target); the simulator still applies the slot.
	Err bool
}

// updatePlanner threads a persistent update.Scratch through the slot loop:
// it rebuilds the old/new update states in place (ping-pong, retained maps)
// and plans each slot's transition without steady-state allocation.
type updatePlanner struct {
	net     *topology.Network
	opt     *optical.State
	scratch *update.Scratch
	states  [2]update.State
	flip    int // states[1-flip] is the previous slot's state
	used    map[int]int
	free    map[int]int
}

func newUpdatePlanner(net *topology.Network, initial *topology.LinkSet) *updatePlanner {
	p := &updatePlanner{
		net:     net,
		opt:     optical.NewState(net),
		scratch: update.NewScratch(),
		used:    map[int]int{},
		free:    map[int]int{},
	}
	prev := &p.states[1-p.flip]
	prev.Reset()
	prev.SetTopology(initial, p.opt.FiberPathIDs)
	return p
}

// onFiberFailure re-derives the planner's optical layer on the surviving
// fibers: circuits provisioned from here on take post-failure fiber routes,
// while the previous slot's state keeps the routes its circuits actually
// occupied.
func (p *updatePlanner) onFiberFailure(fiberID int) {
	p.opt = p.opt.WithoutFiber(fiberID)
	p.net = p.opt.Network()
}

// plan computes the consistent-update schedule for this slot's transition
// and rolls the new state over as the next slot's old state.
func (p *updatePlanner) plan(nextTopo *topology.LinkSet, active []*transfer.Transfer, alloc map[int][]transfer.PathRate) UpdateStat {
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
	for _, fb := range p.net.Fibers {
		f := fb.Wavelengths - p.used[fb.ID]
		if f < 0 {
			f = 0
		}
		p.free[fb.ID] = f
	}

	stat := UpdateStat{Planned: true}
	plan, err := p.scratch.BuildPlan(update.Config{Theta: p.net.ThetaGbps, FiberFree: p.free}, prev, next)
	if err != nil {
		stat.Err = true
	} else {
		stat.Rounds = len(plan.Rounds)
		stat.Ops = plan.NumOps()
		stat.Detours = plan.ForcedDetours
		stat.Seconds = plan.Seconds()
		stat.MinGbps = update.MinThroughput(p.scratch.Timeline(plan, prev))
	}
	p.flip = 1 - p.flip
	return stat
}
