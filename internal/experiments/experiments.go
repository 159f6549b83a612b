// Package experiments defines the reproduction harness for every figure in
// the paper's evaluation (§5): canonical topologies and workloads, the
// per-approach simulation runner, and one generator per figure. Both
// cmd/owan-bench and the repository-level benchmarks drive this package.
package experiments

import (
	"fmt"
	"io"
	"math"

	"owan/internal/core"
	"owan/internal/sim"
	"owan/internal/te"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/workload"
)

// TopoKind selects one of the paper's three evaluation topologies.
type TopoKind string

// Evaluation topologies.
const (
	Internet2 TopoKind = "internet2"
	ISP       TopoKind = "isp"
	InterDC   TopoKind = "interdc"
	// ISP200 is the 200-site stress variant of the ISP backbone: the scale
	// the flat annealing/update paths are benchmarked at. It is opt-in
	// (not part of AllTopos) because full figure sweeps at 200 sites are
	// expensive; use owan-bench's -topo isp200 with the -slots/-iters/-seeds
	// trim flags.
	ISP200 TopoKind = "isp200"
)

// AllTopos lists the evaluation topologies in paper order. ISP200 is
// excluded: it is the opt-in stress scale, not a paper topology.
var AllTopos = []TopoKind{Internet2, ISP, InterDC}

// Scale selects full paper-scale parameters or a reduced quick scale for
// unit benchmarks and CI.
type Scale struct {
	// Sites/ports per topology.
	ISPSites, InterDCSites int
	Ports                  int
	// HorizonSlots is the arrival window ("two hours" at full scale).
	HorizonSlots int
	// MeanSizeGbits per topology class.
	MeanSizeInternet2 float64
	MeanSizeWAN       float64
	// Utilization is the λ=1 demand volume as a fraction of what the
	// network could carry over the horizon.
	Utilization float64
	// OwanIterations caps the annealing schedule.
	OwanIterations int
	// Seeds is the number of workload seeds averaged per data point.
	Seeds int
	// Search overrides the annealing search's knobs (for example the
	// function core.SearchFlags returns); nil keeps the defaults. It is
	// applied after the scale's own settings.
	Search func(*core.Config)
	// FigWorkers bounds the number of simulation runs a figure generator
	// executes concurrently (0 or 1 = serial). Figure output is
	// bit-identical for any value: runs are independent simulations and
	// per-figure aggregation always happens in the serial order.
	FigWorkers int
}

// FullScale is the paper-faithful configuration.
func FullScale() Scale {
	return Scale{
		ISPSites: 40, InterDCSites: 25, Ports: 10,
		HorizonSlots:      24, // 2 h of 5-minute slots
		MeanSizeInternet2: 500 * workload.GB,
		MeanSizeWAN:       5 * workload.TB,
		Utilization:       0.6,
		OwanIterations:    700,
		Seeds:             3,
	}
}

// QuickScale is a reduced configuration for fast benchmarks.
func QuickScale() Scale {
	return Scale{
		ISPSites: 25, InterDCSites: 20, Ports: 8,
		HorizonSlots:      10,
		MeanSizeInternet2: 500 * workload.GB,
		MeanSizeWAN:       2 * workload.TB,
		Utilization:       0.6,
		OwanIterations:    200,
		Seeds:             1,
	}
}

// search applies the scale's Search override, if any, to c.
func (sc Scale) search(c *core.Config) {
	if sc.Search != nil {
		sc.Search(c)
	}
}

// SlotSeconds is the reconfiguration period (five minutes).
const SlotSeconds = 300.0

// BuildTopology constructs a named topology at the given scale.
func BuildTopology(kind TopoKind, sc Scale, seed int64) (*topology.Network, error) {
	switch kind {
	case Internet2:
		return topology.Internet2(sc.Ports), nil
	case ISP:
		return topology.ISP(sc.ISPSites, sc.Ports, seed), nil
	case ISP200:
		return topology.ISP(200, sc.Ports, seed), nil
	case InterDC:
		return topology.InterDC(sc.InterDCSites, 5, sc.Ports, seed), nil
	}
	return nil, fmt.Errorf("experiments: unknown topology %q", kind)
}

// meanSize returns the per-topology mean transfer size.
func meanSize(kind TopoKind, sc Scale) float64 {
	if kind == Internet2 {
		return sc.MeanSizeInternet2
	}
	return sc.MeanSizeWAN
}

// demandGbits sizes the λ=1 workload volume relative to network capacity
// over the horizon. Each transfer charges both endpoints' budgets, so the
// per-site budget total is twice the target volume.
func demandGbits(net *topology.Network, sc Scale) float64 {
	circuits := float64(net.TotalPorts()) / 2
	capacity := circuits * net.ThetaGbps * float64(sc.HorizonSlots) * SlotSeconds
	return 2 * sc.Utilization * capacity
}

// Workload generates the requests for a run.
func Workload(kind TopoKind, net *topology.Network, sc Scale, load, deadlineFactor float64, seed int64) ([]transfer.Request, error) {
	return workload.Generate(workload.Config{
		Sites:            net.NumSites(),
		MeanSizeGbits:    meanSize(kind, sc),
		TotalDemandGbits: demandGbits(net, sc),
		Load:             load,
		DurationSlots:    sc.HorizonSlots,
		DeadlineFactor:   deadlineFactor,
		Hotspots:         kind == InterDC,
		HotspotSites:     5,
		Seed:             seed,
	})
}

// Scheduler builds a sim.Scheduler by name. Deadline-aware runs use EDF
// inside Owan; others use SJF (the paper's default for completion time).
// A positive budget B gives Owan's search a schedule of exactly B
// iterations — MaxIterations = B and Alpha = EpsilonFrac^(1/B), so each
// slot is one complete anneal from T0 down to ε (Fig 10d); 0 keeps the
// scale's iteration cap and the default cooling rate.
func Scheduler(name string, net *topology.Network, sc Scale, deadlines bool, seed int64, budget int) (sim.Scheduler, error) {
	policy := transfer.SJF
	if deadlines {
		policy = transfer.EDF
	}
	// Start from the canonical defaults and overlay the experiment's
	// knobs; Validate fails fast on nonsense (negative workers, bad
	// iteration counts) instead of feeding it to the search.
	owanCfg := core.DefaultConfig(net)
	owanCfg.Policy = policy
	owanCfg.MaxIterations = sc.OwanIterations
	if budget > 0 {
		owanCfg.MaxIterations = budget
		owanCfg.Alpha = math.Pow(core.EpsilonFrac, 1/float64(budget))
	}
	sc.search(&owanCfg)
	owanCfg.Seed = seed
	if err := owanCfg.Validate(); err != nil {
		return nil, err
	}
	mkOwan := func() *core.Owan {
		return core.New(owanCfg)
	}
	switch name {
	case "owan":
		return &sim.OwanScheduler{O: mkOwan(), SlotSeconds: SlotSeconds}, nil
	case "greedy-separate":
		return &sim.GreedyScheduler{O: mkOwan(), SlotSeconds: SlotSeconds}, nil
	case "maxflow":
		return &sim.TEScheduler{Approach: te.MaxFlow{}, Theta: net.ThetaGbps, SlotSeconds: SlotSeconds}, nil
	case "maxminfract":
		return &sim.TEScheduler{Approach: te.MaxMinFract{}, Theta: net.ThetaGbps, SlotSeconds: SlotSeconds}, nil
	case "swan":
		return &sim.TEScheduler{Approach: te.SWAN{}, Theta: net.ThetaGbps, SlotSeconds: SlotSeconds}, nil
	case "tempus":
		return &sim.TEScheduler{Approach: te.Tempus{}, Theta: net.ThetaGbps, SlotSeconds: SlotSeconds}, nil
	case "amoeba":
		return &sim.TEScheduler{Approach: &te.Amoeba{}, Theta: net.ThetaGbps, SlotSeconds: SlotSeconds}, nil
	case "rate-only":
		return &sim.TEScheduler{Approach: te.RateOnly{Policy: policy}, Theta: net.ThetaGbps, SlotSeconds: SlotSeconds}, nil
	case "rate-routing":
		return &sim.TEScheduler{Approach: te.RateRouting{Policy: policy, StarveSlots: core.DefaultStarveSlots}, Theta: net.ThetaGbps, SlotSeconds: SlotSeconds}, nil
	}
	return nil, fmt.Errorf("experiments: unknown approach %q", name)
}

// RunSpec is one simulation run.
type RunSpec struct {
	Topo           TopoKind
	Approach       string
	Load           float64
	DeadlineFactor float64 // 0 = no deadlines
	Seed           int64
	Scale          Scale
	// OwanBudget, if positive, is the annealing schedule length in
	// iterations per slot (Fig 10d; see Scheduler).
	OwanBudget int
	// Requests, when non-nil, replaces the synthetic workload (trace
	// replay). DeadlineFactor still selects EDF scheduling when positive.
	Requests []transfer.Request
}

// Run executes one simulation run end to end.
func Run(spec RunSpec) (*sim.Result, error) {
	net, err := BuildTopology(spec.Topo, spec.Scale, spec.Seed)
	if err != nil {
		return nil, err
	}
	reqs := spec.Requests
	if reqs == nil {
		reqs, err = Workload(spec.Topo, net, spec.Scale, spec.Load, spec.DeadlineFactor, spec.Seed+100)
		if err != nil {
			return nil, err
		}
	}
	sched, err := Scheduler(spec.Approach, net, spec.Scale, spec.DeadlineFactor > 0, spec.Seed+200, spec.OwanBudget)
	if err != nil {
		return nil, err
	}
	if c, ok := sched.(io.Closer); ok {
		defer c.Close() // stop Owan-backed schedulers' evaluator pools
	}
	maxSlots := 50 * spec.Scale.HorizonSlots
	if spec.DeadlineFactor > 0 {
		// Deadline runs measure deadline hits, not drain time: a bounded
		// tail keeps Amoeba/Tempus ledgers small.
		maxSlots = spec.Scale.HorizonSlots + int(spec.DeadlineFactor) + 50
	}
	return sim.Run(sim.Config{
		Net:             net,
		Initial:         topology.InitialTopology(net),
		Scheduler:       sched,
		Requests:        reqs,
		SlotSeconds:     SlotSeconds,
		MaxSlots:        maxSlots,
		ReconfigSeconds: 4,
	})
}
