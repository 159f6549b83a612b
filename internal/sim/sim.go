// Package sim is the flow-based discrete-time simulator used for the
// paper's large-scale evaluation (§5.1): time is divided into slots, a
// scheduler (Owan or a network-layer baseline) computes the topology and
// per-transfer allocation at the start of each slot, and transfers then
// progress fluidly at their allocated rates. Reconfiguration costs are
// modelled by docking transmission time from transfers whose paths cross
// links whose circuits changed in the slot.
package sim

import (
	"errors"
	"math"

	"owan/internal/core"
	"owan/internal/te"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// Static configuration errors (errors.Is-comparable).
var (
	// ErrMissingConfig is returned when net, initial topology or scheduler
	// is absent.
	ErrMissingConfig = errors.New("sim: net, initial topology and scheduler are required")
	// ErrBadSlots rejects non-positive slot durations or slot counts.
	ErrBadSlots = errors.New("sim: slot seconds and max slots must be positive")
)

// Scheduler produces the network state for each slot.
type Scheduler interface {
	Name() string
	// Schedule returns the topology to use for this slot and the
	// allocation of paths/rates to the active transfers.
	Schedule(slot int, topo *topology.LinkSet, active []*transfer.Transfer) (*topology.LinkSet, map[int][]transfer.PathRate)
}

// Config describes one simulation run.
type Config struct {
	Net       *topology.Network
	Initial   *topology.LinkSet
	Scheduler Scheduler
	Requests  []transfer.Request
	// SlotSeconds is the reconfiguration period (paper: five minutes).
	SlotSeconds float64
	// MaxSlots bounds the run; the simulation also stops once every
	// transfer has completed.
	MaxSlots int
	// ReconfigSeconds is docked from the transmit time of any transfer
	// whose path crosses a link whose circuit count changed this slot
	// (circuits go dark for seconds during optical reconfiguration).
	ReconfigSeconds float64
	// FiberFailures injects fiber failures: at the start of the given
	// slot, the listed fiber ids are reported to the scheduler (if it is
	// FailureAware).
	FiberFailures map[int][]int
	// PlanUpdates runs the §3.3 consistent-update planner on every slot's
	// reconfiguration with a persistent scratch, recording per-slot plan
	// statistics in Result.Updates — the controller-side cost of each slot,
	// planned end to end alongside the scheduling itself.
	PlanUpdates bool
}

// Result collects the outcome of a run.
type Result struct {
	Name      string
	Transfers []*transfer.Transfer
	// Slots actually simulated.
	Slots       int
	SlotSeconds float64
	// SlotThroughput is the average goodput (Gbps) per slot.
	SlotThroughput []float64
	// Churn is the circuit adds+removes per slot.
	Churn []int
	// MakespanSeconds is the completion time of the last transfer, or +Inf
	// if some transfer never finished within MaxSlots.
	MakespanSeconds float64
	// Updates holds the per-slot consistent-update plan statistics when
	// Config.PlanUpdates is set (one entry per simulated slot).
	Updates []UpdateStat
}

// Completed returns the completed transfers.
func (r *Result) Completed() []*transfer.Transfer {
	var out []*transfer.Transfer
	for _, t := range r.Transfers {
		if t.Done {
			out = append(out, t)
		}
	}
	return out
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Net == nil || cfg.Scheduler == nil || cfg.Initial == nil {
		return nil, ErrMissingConfig
	}
	if cfg.SlotSeconds <= 0 || cfg.MaxSlots <= 0 {
		return nil, ErrBadSlots
	}
	ts := make([]*transfer.Transfer, 0, len(cfg.Requests))
	for _, r := range cfg.Requests {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		ts = append(ts, transfer.NewTransfer(r))
	}
	res := &Result{
		Name:        cfg.Scheduler.Name(),
		Transfers:   ts,
		SlotSeconds: cfg.SlotSeconds,
	}
	topo := cfg.Initial.Clone()
	// Per-run scratch for the changed-link computation: the sorted link
	// enumerations of the outgoing and incoming topologies and the sorted
	// changed pairs they merge-diff into, all reused across slots so the
	// per-slot reconfiguration check performs no map work and no allocation
	// in steady state.
	var (
		prevLinks, nextLinks []topology.Link
		changed              [][2]int
	)
	var planner *updatePlanner
	if cfg.PlanUpdates {
		planner = newUpdatePlanner(cfg.Net, cfg.Initial)
	}
	// negligibleGbits treats sub-kilobyte residues as complete: allocators
	// drop rates below their numerical floor, so without this cutoff a
	// transfer could approach zero asymptotically and never finish.
	const negligibleGbits = 1e-5
	for slot := 0; slot < cfg.MaxSlots; slot++ {
		injectFailures(&cfg, slot, planner)
		for _, t := range ts {
			if !t.Done && t.Arrival <= slot && t.Remaining <= negligibleGbits {
				t.Remaining = 0
				t.Done = true
				t.FinishTime = float64(slot) * cfg.SlotSeconds
			}
		}
		active := transfer.Active(ts, slot)
		if len(active) == 0 {
			if allArrived(ts, slot) && allDone(ts) {
				break
			}
			res.SlotThroughput = append(res.SlotThroughput, 0)
			res.Churn = append(res.Churn, 0)
			if planner != nil {
				res.Updates = append(res.Updates, UpdateStat{})
			}
			res.Slots++
			continue
		}
		newTopo, alloc := cfg.Scheduler.Schedule(slot, topo, active)
		if newTopo == nil {
			newTopo = topo
		}
		churn := topo.Diff(newTopo)
		if planner != nil {
			res.Updates = append(res.Updates, planner.plan(newTopo, active, alloc))
		}
		prevLinks = topo.AppendLinks(prevLinks[:0])
		nextLinks = newTopo.AppendLinks(nextLinks[:0])
		changed = changedPairs(changed[:0], prevLinks, nextLinks)

		now := float64(slot) * cfg.SlotSeconds
		sent := 0.0
		for _, t := range active {
			t.Alloc = alloc[t.ID]
			dt := cfg.SlotSeconds
			start := now
			if churn > 0 && cfg.ReconfigSeconds > 0 && crossesChanged(t.Alloc, changed) {
				// Circuits in flux are dark: transmission begins only after
				// the optical reconfiguration completes.
				dt = math.Max(0, dt-cfg.ReconfigSeconds)
				start += cfg.ReconfigSeconds
			}
			sentT := t.Advance(start, dt, slot)
			if t.Deadline != transfer.NoDeadline && slot <= t.Deadline {
				t.DeliveredByDeadline += sentT
			}
			sent += sentT
			t.Alloc = nil
		}
		res.SlotThroughput = append(res.SlotThroughput, sent/cfg.SlotSeconds)
		res.Churn = append(res.Churn, churn)
		res.Slots++
		topo = newTopo
	}
	res.MakespanSeconds = makespan(ts)
	return res, nil
}

func allArrived(ts []*transfer.Transfer, slot int) bool {
	for _, t := range ts {
		if t.Arrival > slot {
			return false
		}
	}
	return true
}

func allDone(ts []*transfer.Transfer) bool {
	for _, t := range ts {
		if !t.Done {
			return false
		}
	}
	return true
}

func makespan(ts []*transfer.Transfer) float64 {
	m := 0.0
	for _, t := range ts {
		if !t.Done {
			return math.Inf(1)
		}
		if t.FinishTime > m {
			m = t.FinishTime
		}
	}
	return m
}

// changedPairs merge-diffs two (U, V)-sorted link enumerations and appends
// every canonical pair whose circuit count differs (including pairs present
// on only one side — LinkSet never stores zero counts) to dst, which stays
// sorted. Equivalent to diffing the two Count maps, without building any map.
func changedPairs(dst [][2]int, a, b []topology.Link) [][2]int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		la, lb := a[i], b[j]
		switch {
		case la.U < lb.U || (la.U == lb.U && la.V < lb.V):
			dst = append(dst, [2]int{la.U, la.V})
			i++
		case lb.U < la.U || (la.U == lb.U && lb.V < la.V):
			dst = append(dst, [2]int{lb.U, lb.V})
			j++
		default:
			if la.Count != lb.Count {
				dst = append(dst, [2]int{la.U, la.V})
			}
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		dst = append(dst, [2]int{a[i].U, a[i].V})
	}
	for ; j < len(b); j++ {
		dst = append(dst, [2]int{b[j].U, b[j].V})
	}
	return dst
}

// containsPair binary-searches a sorted pair slice for the canonical (u, v).
func containsPair(pairs [][2]int, u, v int) bool {
	lo, hi := 0, len(pairs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		p := pairs[mid]
		if p[0] < u || (p[0] == u && p[1] < v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(pairs) && pairs[lo][0] == u && pairs[lo][1] == v
}

func crossesChanged(alloc []transfer.PathRate, changed [][2]int) bool {
	if len(changed) == 0 {
		return false
	}
	for _, pr := range alloc {
		for i := 0; i+1 < len(pr.Path); i++ {
			u, v := pr.Path[i], pr.Path[i+1]
			if u > v {
				u, v = v, u
			}
			if containsPair(changed, u, v) {
				return true
			}
		}
	}
	return false
}

// TEScheduler adapts a network-layer-only te.Approach: the topology never
// changes, except when a fiber failure forces the operator to re-derive
// the static network layer from the surviving fiber map (set Net to make
// the scheduler failure-aware).
type TEScheduler struct {
	Approach    te.Approach
	Theta       float64
	SlotSeconds float64
	// Net, when set, enables OnFiberFailure: the fixed topology is rebuilt
	// from the fiber map without the failed fiber.
	Net *topology.Network
	// override replaces the simulator-tracked topology after a failure.
	override *topology.LinkSet
}

// Name implements Scheduler.
func (s *TEScheduler) Name() string { return s.Approach.Name() }

// OnFiberFailure rebuilds the fixed topology from the surviving fibers.
// Without optical-layer control the operator cannot re-optimize; they can
// only re-derive the same static design on what remains.
func (s *TEScheduler) OnFiberFailure(fiberID int) {
	if s.Net == nil {
		return
	}
	net, ok := s.Net.WithoutFiber(fiberID)
	if !ok {
		return
	}
	s.Net = net
	s.override = topology.InitialTopology(net)
}

// Schedule implements Scheduler.
func (s *TEScheduler) Schedule(slot int, topo *topology.LinkSet, active []*transfer.Transfer) (*topology.LinkSet, map[int][]transfer.PathRate) {
	if s.override != nil {
		topo = s.override
		s.override = nil
	}
	in := &te.Input{
		Topo:        topo,
		Theta:       s.Theta,
		Active:      active,
		Slot:        slot,
		SlotSeconds: s.SlotSeconds,
	}
	return topo, s.Approach.Allocate(in)
}

// OwanScheduler adapts the core simulated-annealing controller.
type OwanScheduler struct {
	O           *core.Owan
	SlotSeconds float64
	// LastStats holds the most recent search statistics.
	LastStats core.SearchStats
}

// Name implements Scheduler.
func (s *OwanScheduler) Name() string { return "owan" }

// Schedule implements Scheduler.
func (s *OwanScheduler) Schedule(slot int, topo *topology.LinkSet, active []*transfer.Transfer) (*topology.LinkSet, map[int][]transfer.PathRate) {
	st := s.O.ComputeNetworkState(topo, active, slot, s.SlotSeconds)
	s.LastStats = st.Stats
	return st.Topology, st.Alloc
}

// Close implements io.Closer: it stops the controller's persistent evaluator
// pool. Runners that own their scheduler call it when the run ends.
func (s *OwanScheduler) Close() error {
	s.O.Close()
	return nil
}

// GreedyScheduler adapts the separate-layer greedy of Figure 10(a).
type GreedyScheduler struct {
	O           *core.Owan
	SlotSeconds float64
}

// Name implements Scheduler.
func (s *GreedyScheduler) Name() string { return "greedy-separate" }

// Schedule implements Scheduler.
func (s *GreedyScheduler) Schedule(slot int, topo *topology.LinkSet, active []*transfer.Transfer) (*topology.LinkSet, map[int][]transfer.PathRate) {
	st := s.O.GreedySeparate(active, slot, s.SlotSeconds)
	return st.Topology, st.Alloc
}

// Close implements io.Closer, mirroring OwanScheduler.
func (s *GreedyScheduler) Close() error {
	s.O.Close()
	return nil
}
