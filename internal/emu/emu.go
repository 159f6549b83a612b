// Package emu is the in-process stand-in for the paper's 9-site hardware
// testbed (§4.1): where internal/sim advances transfers fluidly, emu
// transmits discrete chunks through per-link token buckets, enforcing the
// allocated rates the way the testbed's Linux Traffic Control does, and
// validating the ROADM datapath power budget for every provisioned
// circuit. The paper validates its flow-based simulator against the
// testbed and reports agreement within 10%; the emu/sim comparison test
// reproduces that check.
package emu

import (
	"fmt"
	"math"

	"owan/internal/optical"
	"owan/internal/sim"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// Config wraps a sim.Config with emulation granularity.
type Config struct {
	Sim sim.Config
	// StepsPerSlot is the number of token-bucket rounds per slot (the
	// emulated "packet clock"). More steps = finer granularity.
	StepsPerSlot int
	// ChunkGbits is the transmission quantum (a jumbo burst); transfers
	// send whole chunks only, modelling packetization.
	ChunkGbits float64
}

// Run executes the emulation and returns a sim.Result-compatible outcome.
func Run(cfg Config) (*sim.Result, error) {
	sc := cfg.Sim
	if sc.Net == nil || sc.Scheduler == nil || sc.Initial == nil {
		return nil, fmt.Errorf("emu: net, initial topology and scheduler are required")
	}
	if sc.SlotSeconds <= 0 || sc.MaxSlots <= 0 {
		return nil, fmt.Errorf("emu: slot seconds and max slots must be positive")
	}
	if cfg.StepsPerSlot <= 0 {
		cfg.StepsPerSlot = 100
	}
	if cfg.ChunkGbits <= 0 {
		cfg.ChunkGbits = 0.5
	}
	// The testbed's EDFA-compensated datapath must close the power budget,
	// otherwise no circuit would carry packets at all.
	if err := (optical.ROADMPath{EDFAGainDB: optical.DefaultEDFAGainDB}).Validate(); err != nil {
		return nil, fmt.Errorf("emu: ROADM datapath invalid: %w", err)
	}

	ts := make([]*transfer.Transfer, 0, len(sc.Requests))
	for _, r := range sc.Requests {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		ts = append(ts, transfer.NewTransfer(r))
	}
	res := &sim.Result{Name: sc.Scheduler.Name() + "+emu", Transfers: ts, SlotSeconds: sc.SlotSeconds}
	topo := sc.Initial.Clone()
	stepDt := sc.SlotSeconds / float64(cfg.StepsPerSlot)

	credits := map[int]float64{} // per transfer fractional chunk credit

	for slot := 0; slot < sc.MaxSlots; slot++ {
		for _, t := range ts {
			t.Settle(slot, sc.SlotSeconds)
		}
		active := transfer.Active(ts, slot)
		if len(active) == 0 {
			if allDone(ts, slot) {
				break
			}
			res.SlotThroughput = append(res.SlotThroughput, 0)
			res.Churn = append(res.Churn, 0)
			res.Slots++
			continue
		}
		newTopo, alloc := sc.Scheduler.Schedule(slot, topo, active)
		if newTopo == nil {
			newTopo = topo
		}
		res.Churn = append(res.Churn, topo.Diff(newTopo))
		linkCap := capacities(newTopo, sc.Net.ThetaGbps)

		slotStart := float64(slot) * sc.SlotSeconds
		sentSlot := 0.0
		// Link budgets are per slot (capacity × slot length): chunks are
		// bursts, so a link can serve a whole chunk in one step as long as
		// its slot-long byte budget holds; the per-transfer credits pace
		// sources to their allocated rates.
		budget := map[[2]int]float64{}
		for k, c := range linkCap {
			budget[k] = c * sc.SlotSeconds
		}
		for step := 0; step < cfg.StepsPerSlot; step++ {
			now := slotStart + float64(step)*stepDt
			for _, t := range active {
				if t.Done {
					continue
				}
				for _, pr := range alloc[t.ID] {
					if t.Done {
						break
					}
					// Token bucket: accumulate credit at the allocated rate,
					// transmit in whole chunks subject to link budgets. The
					// final fragment of a transfer goes out as a partial
					// chunk, and a small epsilon absorbs float drift in the
					// credit accumulation.
					credits[t.ID] += pr.Rate * stepDt
					const creditEps = 1e-9
					for !t.Done {
						chunk := math.Min(cfg.ChunkGbits, t.Remaining)
						if chunk <= 0 || credits[t.ID] < chunk-creditEps {
							break
						}
						if !takeBudget(budget, pr.Path, chunk) {
							break
						}
						credits[t.ID] -= chunk
						t.Remaining -= chunk
						sentSlot += chunk
						if t.Deadline != transfer.NoDeadline && slot <= t.Deadline {
							t.DeliveredByDeadline += chunk
						}
						if t.Remaining <= 1e-9 {
							t.Remaining = 0
							t.Done = true
							t.FinishTime = now + stepDt
							t.LastServed = slot
						}
					}
				}
				// An allocation counts as service for the starvation
				// guard even in a step that sent no whole chunk.
				if !t.Done && len(alloc[t.ID]) > 0 {
					t.LastServed = slot
				}
			}
		}
		// Cap credits so an idle slot cannot bank unbounded burst.
		for id := range credits {
			if credits[id] > 4*cfg.ChunkGbits {
				credits[id] = 4 * cfg.ChunkGbits
			}
		}
		res.SlotThroughput = append(res.SlotThroughput, sentSlot/sc.SlotSeconds)
		res.Slots++
		topo = newTopo
	}
	res.MakespanSeconds = makespan(ts)
	return res, nil
}

func allDone(ts []*transfer.Transfer, slot int) bool {
	for _, t := range ts {
		if t.Arrival > slot || !t.Done {
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

func capacities(ls *topology.LinkSet, theta float64) map[[2]int]float64 {
	out := map[[2]int]float64{}
	for _, l := range ls.Links() {
		out[[2]int{l.U, l.V}] = float64(l.Count) * theta
	}
	return out
}

func takeBudget(budget map[[2]int]float64, path []int, chunk float64) bool {
	keys := make([][2]int, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		u, v := path[i], path[i+1]
		if u > v {
			u, v = v, u
		}
		k := [2]int{u, v}
		if budget[k] < chunk {
			return false
		}
		keys = append(keys, k)
	}
	for _, k := range keys {
		budget[k] -= chunk
	}
	return true
}
