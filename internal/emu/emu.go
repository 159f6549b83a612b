// Package emu is the in-process stand-in for the paper's 9-site hardware
// testbed (§4.1): a sim.DataPlane that, where the simulator's fluid model
// advances transfers at their allocated rates, transmits discrete chunks
// through per-link token buckets, enforcing the allocated rates the way the
// testbed's Linux Traffic Control does. Its constructor checks the ROADM
// datapath power budget once, on the one EDFA-compensated design every
// emulated circuit shares. The paper validates its flow-based simulator
// against the testbed and reports agreement within 10%; sim.Run with and
// without this data plane reproduces that check.
package emu

import (
	"fmt"
	"math"

	"owan/internal/optical"
	"owan/internal/topology"
	"owan/internal/transfer"
)

const (
	// StepsPerSlot is the number of token-bucket rounds per slot (the
	// emulated "packet clock").
	StepsPerSlot = 100
	// ChunkGbits is the transmission quantum (a jumbo burst); transfers
	// send whole chunks only, modelling packetization.
	ChunkGbits = 0.5
	// creditEps absorbs float drift in the credit accumulation.
	creditEps = 1e-9
)

// Testbed is the chunked token-bucket data plane. It keeps each transfer's
// fractional chunk credit across slots, so one Testbed serves one run.
type Testbed struct {
	thetaGbps float64
	credits   map[int]float64
}

// New returns a testbed whose circuits carry thetaGbps each. The testbed's
// EDFA-compensated datapath must close the power budget, otherwise no
// circuit would carry packets at all.
func New(thetaGbps float64) (*Testbed, error) {
	if err := (optical.ROADMPath{EDFAGainDB: optical.DefaultEDFAGainDB}).Validate(); err != nil {
		return nil, fmt.Errorf("emu: ROADM datapath invalid: %w", err)
	}
	return &Testbed{thetaGbps: thetaGbps, credits: map[int]float64{}}, nil
}

// Serve implements sim.DataPlane. Link budgets are per slot (capacity ×
// slot length): chunks are bursts, so a link can serve a whole chunk in one
// step as long as its slot-long budget holds; the per-transfer credits pace
// sources to their allocated rates. A transfer earns no credit while dark.
func (tb *Testbed) Serve(slot int, slotSeconds float64, topo *topology.LinkSet, active []*transfer.Transfer, alloc map[int][]transfer.PathRate, dark []float64) float64 {
	budget := map[[2]int]float64{}
	for _, l := range topo.Links() {
		budget[[2]int{l.U, l.V}] = float64(l.Count) * tb.thetaGbps * slotSeconds
	}
	stepDt := slotSeconds / StepsPerSlot
	sent := 0.0
	for step := 0; step < StepsPerSlot; step++ {
		now := float64(slot)*slotSeconds + float64(step)*stepDt
		for i, t := range active {
			if t.Done {
				continue
			}
			lit := math.Min(stepDt, math.Max(0, float64(step+1)*stepDt-dark[i]))
			for _, pr := range alloc[t.ID] {
				if t.Done {
					break
				}
				// Token bucket: accumulate credit at the allocated rate,
				// transmit in whole chunks subject to link budgets. The
				// final fragment of a transfer goes out as a partial chunk.
				tb.credits[t.ID] += pr.Rate * lit
				for !t.Done {
					chunk := math.Min(ChunkGbits, t.Remaining)
					if chunk <= 0 || tb.credits[t.ID] < chunk-creditEps || !takeBudget(budget, pr.Path, chunk) {
						break
					}
					tb.credits[t.ID] -= chunk
					t.Remaining -= chunk
					sent += chunk
					if t.Deadline != transfer.NoDeadline && slot <= t.Deadline {
						t.DeliveredByDeadline += chunk
					}
					if t.Remaining <= 1e-9 {
						t.Remaining, t.Done = 0, true
						t.FinishTime = now + stepDt
						t.LastServed = slot
					}
				}
			}
			// An allocation counts as service for the starvation guard
			// even in a step that sent no whole chunk.
			if !t.Done && len(alloc[t.ID]) > 0 {
				t.LastServed = slot
			}
		}
	}
	// Cap credits so an idle slot cannot bank unbounded burst.
	for id, c := range tb.credits {
		tb.credits[id] = math.Min(c, 4*ChunkGbits)
	}
	return sent
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
