package te

import (
	"sort"

	"owan/internal/lp"
	"owan/internal/transfer"
)

// Tempus approximates the Tempus calendaring objective online: every
// deadline transfer's demand is spread evenly over the slots remaining
// until its deadline, then the slot LP first maximizes the minimum served
// fraction of those per-slot targets and second maximizes the total bytes
// delivered. Transfers without deadlines are treated as having a distant
// horizon.
type Tempus struct {
	// HorizonSlots is the pacing horizon for transfers without deadlines.
	HorizonSlots int
}

// Name implements Approach.
func (Tempus) Name() string { return "tempus" }

// target returns the Tempus per-slot rate target for a transfer.
func (tp Tempus) target(t *transfer.Transfer, in *Input) float64 {
	horizon := tp.HorizonSlots
	if horizon <= 0 {
		horizon = 12
	}
	slots := horizon
	if t.Deadline != transfer.NoDeadline {
		slots = t.Deadline - in.Slot + 1
		if slots < 1 {
			slots = 1
		}
	}
	return t.Remaining / float64(slots) / in.SlotSeconds
}

// Allocate implements Approach.
func (tp Tempus) Allocate(in *Input) map[int][]transfer.PathRate {
	paths := candidatePaths(in)
	vi := buildVarIndex(paths)
	if vi.count == 0 {
		return map[int][]transfer.PathRate{}
	}
	// Stage 1: maximize min fraction of the per-slot targets.
	p1 := lp.NewProblem(vi.count + 1)
	tVar := vi.count
	p1.SetObjective(tVar, 1)
	addCapacityConstraints(p1, in, vi)
	addDemandCaps(p1, in, paths, vi, 1)
	for i, t := range in.Active {
		if len(paths[i]) == 0 {
			continue
		}
		target := tp.target(t, in)
		coeffs := map[int]float64{tVar: -target}
		for _, v := range vi.vars[i] {
			coeffs[v] = 1
		}
		p1.AddConstraint(coeffs, lp.GE, 0)
	}
	p1.AddConstraint(map[int]float64{tVar: 1}, lp.LE, 1)
	sol1, err := p1.Solve()
	if err != nil || sol1.Status != lp.Optimal {
		return map[int][]transfer.PathRate{}
	}
	tStar := sol1.X[tVar]
	// Stage 2: maximize total bytes subject to the achieved fractions.
	p2 := lp.NewProblem(vi.count)
	for v := 0; v < vi.count; v++ {
		p2.SetObjective(v, 1)
	}
	addCapacityConstraints(p2, in, vi)
	addDemandCaps(p2, in, paths, vi, 1)
	for i, t := range in.Active {
		if len(paths[i]) == 0 {
			continue
		}
		target := tp.target(t, in)
		coeffs := map[int]float64{}
		for _, v := range vi.vars[i] {
			coeffs[v] = 1
		}
		p2.AddConstraint(coeffs, lp.GE, 0.999*tStar*target)
	}
	sol2, err := p2.Solve()
	if err != nil || sol2.Status != lp.Optimal {
		return extract(in, paths, vi, sol1.X)
	}
	return extract(in, paths, vi, sol2.X)
}

// Amoeba is a stateful deadline-aware approach: it admits transfers in EDF
// order by reserving capacity on candidate paths in the earliest available
// slots before the deadline (a time-expanded greedy, following Amoeba's
// graph-algorithm design). Reserved rates become the slot allocation;
// leftover capacity is shared among all transfers work-conservingly.
type Amoeba struct {
	// ledger[slot][link] = reserved Gbps.
	ledger map[int]map[[2]int]float64
	// admitted maps transfer ID -> per-slot reserved rates on paths.
	admitted map[int]map[int][]transfer.PathRate
	rejected map[int]bool
}

// Name implements Approach.
func (*Amoeba) Name() string { return "amoeba" }

func (a *Amoeba) init() {
	if a.ledger == nil {
		a.ledger = map[int]map[[2]int]float64{}
		a.admitted = map[int]map[int][]transfer.PathRate{}
		a.rejected = map[int]bool{}
	}
}

// reserve books rate on a path for a slot.
func (a *Amoeba) reserve(slot int, path []int, rate float64) {
	m := a.ledger[slot]
	if m == nil {
		m = map[[2]int]float64{}
		a.ledger[slot] = m
	}
	for _, lk := range pathLinks(path) {
		m[lk] += rate
	}
}

// free returns the free capacity of a link in a slot.
func (a *Amoeba) free(in *Input, slot int, lk [2]int) float64 {
	capTotal := float64(in.Topo.Get(lk[0], lk[1])) * in.Theta
	return capTotal - a.ledger[slot][lk]
}

// Allocate implements Approach.
func (a *Amoeba) Allocate(in *Input) map[int][]transfer.PathRate {
	a.init()
	paths := candidatePaths(in)
	// Admission for transfers seen for the first time, in EDF order.
	order := make([]int, 0, len(in.Active))
	for i := range in.Active {
		t := in.Active[i]
		if _, seen := a.admitted[t.ID]; !seen && !a.rejected[t.ID] {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(x, y int) bool {
		dx, dy := in.Active[order[x]].Deadline, in.Active[order[y]].Deadline
		if dx == transfer.NoDeadline {
			dx = 1 << 30
		}
		if dy == transfer.NoDeadline {
			dy = 1 << 30
		}
		if dx != dy {
			return dx < dy
		}
		return in.Active[order[x]].ID < in.Active[order[y]].ID
	})
	for _, i := range order {
		t := in.Active[i]
		a.admit(in, t, paths[i])
	}
	// The slot allocation is this slot's reservations...
	out := make(map[int][]transfer.PathRate, len(in.Active))
	used := map[[2]int]float64{}
	for _, t := range in.Active {
		for _, pr := range a.admitted[t.ID][in.Slot] {
			out[t.ID] = append(out[t.ID], pr)
			for _, lk := range pathLinks(pr.Path) {
				used[lk] += pr.Rate
			}
		}
	}
	// ...plus work-conserving filling of leftover capacity (Amoeba does not
	// idle links; best-effort traffic including rejected transfers shares
	// the slack) in EDF order on shortest candidate paths.
	for i, t := range in.Active {
		need := demandRate(t, in.SlotSeconds)
		for _, pr := range out[t.ID] {
			need -= pr.Rate
		}
		for _, p := range paths[i] {
			if need <= 1e-9 {
				break
			}
			avail := need
			for _, lk := range pathLinks(p) {
				if f := a.free(in, in.Slot, lk) - used[lk]; f < avail {
					avail = f
				}
			}
			if avail <= 1e-9 {
				continue
			}
			out[t.ID] = append(out[t.ID], transfer.PathRate{Path: p, Rate: avail})
			for _, lk := range pathLinks(p) {
				used[lk] += avail
			}
			need -= avail
		}
	}
	return out
}

// admit tries to reserve enough capacity between now and the deadline to
// finish the transfer; on failure nothing is reserved and the transfer is
// marked rejected (paper: Amoeba only commits to deadlines it can keep).
func (a *Amoeba) admit(in *Input, t *transfer.Transfer, ps [][]int) {
	if len(ps) == 0 {
		a.rejected[t.ID] = true
		return
	}
	lastSlot := t.Deadline
	if lastSlot == transfer.NoDeadline {
		lastSlot = in.Slot + 64 // generous horizon for best-effort traffic
	}
	remaining := t.Remaining // Gbits
	type booking struct {
		slot int
		path []int
		rate float64
	}
	var plan []booking
	for slot := in.Slot; slot <= lastSlot && remaining > 1e-9; slot++ {
		for _, p := range ps {
			if remaining <= 1e-9 {
				break
			}
			avail := remaining / in.SlotSeconds
			for _, lk := range pathLinks(p) {
				if f := a.free(in, slot, lk); f < avail {
					avail = f
				}
			}
			// Account for other bookings in this tentative plan.
			for _, b := range plan {
				if b.slot != slot {
					continue
				}
				for _, lk := range pathLinks(b.path) {
					for _, lk2 := range pathLinks(p) {
						if lk == lk2 && avail > 0 {
							// Conservative: subtract overlapping booking.
							avail -= b.rate
						}
					}
				}
			}
			if avail <= 1e-9 {
				continue
			}
			plan = append(plan, booking{slot: slot, path: p, rate: avail})
			remaining -= avail * in.SlotSeconds
		}
	}
	if t.Deadline != transfer.NoDeadline && remaining > 1e-9 {
		a.rejected[t.ID] = true
		return
	}
	perSlot := map[int][]transfer.PathRate{}
	for _, b := range plan {
		a.reserve(b.slot, b.path, b.rate)
		perSlot[b.slot] = append(perSlot[b.slot], transfer.PathRate{Path: b.path, Rate: b.rate})
	}
	a.admitted[t.ID] = perSlot
}
