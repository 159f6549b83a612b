package update

import (
	"slices"

	"owan/internal/tcp"
)

// Sample is one point of the throughput-versus-time curve during an update.
type Sample struct {
	T          float64 // seconds since the update began
	Throughput float64 // Gbps carried at that instant
}

// Timeline evaluates the throughput carried while a consistent plan
// executes: routes contribute their rate from the moment they are added
// until the moment they are removed; circuit operations by construction
// never strand a live route, so they do not interrupt traffic. It runs the
// flat evaluator on a throwaway Scratch; per-slot callers should reuse a
// Scratch and call its Timeline to avoid reallocating.
func (p *Plan) Timeline(oldState *State) []Sample {
	return NewScratch().Timeline(p, oldState)
}

func eqRouteRec(a, b routeRec) bool { return cmpRoute(a.r, b.r) == 0 }

// Timeline is the flat, allocation-free timeline evaluator. Every route the
// curve can ever see — the old state's plus those the plan's route ops name
// — gets a dense slot in a canonically-sorted table; rounds toggle slots
// and each sample sums the live slots in ascending order, which is exactly
// the canonical-order summation referenceTimeline performs, so the two
// produce bit-identical curves. The returned samples alias scratch storage
// and are valid until the next Timeline call on this Scratch.
func (s *Scratch) Timeline(p *Plan, oldState *State) []Sample {
	s.tlRecs = s.tlRecs[:0]
	for _, r := range oldState.Routes {
		s.tlRecs = append(s.tlRecs, routeRec{r: r})
	}
	for _, round := range p.Rounds {
		for _, o := range round.Ops {
			switch o.Kind {
			case AddRoute, RemoveRoute, ChangeRoute:
				s.tlRecs = append(s.tlRecs, routeRec{r: Route{TransferID: o.TransferID, Path: o.Path, Rate: o.Rate}})
			}
		}
	}
	slices.SortFunc(s.tlRecs, cmpRouteRec)
	s.tlRecs = slices.CompactFunc(s.tlRecs, eqRouteRec)
	n := len(s.tlRecs)
	s.tlRate = growF64(s.tlRate, n)
	s.tlLive = growBool(s.tlLive, n)
	for i := 0; i < n; i++ {
		s.tlLive[i] = false
	}
	slotOf := func(id int, path []int) int {
		i, _ := slices.BinarySearchFunc(s.tlRecs, routeRec{r: Route{TransferID: id, Path: path}}, cmpRouteRec)
		return i
	}
	// Initial live set, in the state's route order (last write wins, like
	// the reference's map upserts — a duplicate-free state never hits this).
	for _, r := range oldState.Routes {
		i := slotOf(r.TransferID, r.Path)
		s.tlRate[i] = r.Rate
		s.tlLive[i] = true
	}
	total := func() float64 {
		t := 0.0
		for i := 0; i < n; i++ {
			if s.tlLive[i] {
				t += s.tlRate[i]
			}
		}
		return t
	}
	now := 0.0
	s.samples = s.samples[:0]
	s.samples = append(s.samples, Sample{T: 0, Throughput: total()})
	for _, round := range p.Rounds {
		for _, o := range round.Ops {
			switch o.Kind {
			case RemoveRoute:
				s.tlLive[slotOf(o.TransferID, o.Path)] = false
			case AddRoute, ChangeRoute:
				i := slotOf(o.TransferID, o.Path)
				s.tlRate[i] = o.Rate
				s.tlLive[i] = true
			}
		}
		now += round.Seconds()
		s.samples = append(s.samples, Sample{T: now, Throughput: total()})
	}
	return s.samples
}

// OneShotTimeline evaluates the throughput of the naive update that pushes
// every change simultaneously: the routers switch to the new routes almost
// immediately, but every link whose circuits are being reconfigured goes
// dark for CircuitOpSeconds, so new routes crossing a changed link carry
// nothing during that window (their packets are dropped; with TCP the
// effect the paper measures is a ~10% dip in total throughput).
func OneShotTimeline(oldState, newState *State) []Sample {
	changed := map[[2]int]bool{}
	linkSet := map[[2]int]bool{}
	for l := range oldState.Circuits {
		linkSet[l] = true
	}
	for l := range newState.Circuits {
		linkSet[l] = true
	}
	for l := range linkSet {
		if oldState.Circuits[l] != newState.Circuits[l] {
			changed[l] = true
		}
	}
	during, after := 0.0, 0.0
	for _, r := range newState.Routes {
		after += r.Rate
		dark := false
		for _, l := range routeLinks(r.Path) {
			if changed[l] {
				dark = true
				break
			}
		}
		if !dark {
			during += r.Rate
		}
	}
	before := 0.0
	for _, r := range oldState.Routes {
		before += r.Rate
	}
	return []Sample{
		{T: 0, Throughput: before},
		{T: RouteOpSeconds, Throughput: during},
		{T: CircuitOpSeconds, Throughput: during},
		{T: CircuitOpSeconds + 1e-3, Throughput: after},
	}
}

// MinThroughput returns the lowest throughput in a timeline.
func MinThroughput(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	m := samples[0].Throughput
	for _, s := range samples {
		if s.Throughput < m {
			m = s.Throughput
		}
	}
	return m
}

// OneShotTCPTimeline refines OneShotTimeline with transport behaviour:
// the routes crossing reconfigured links are TCP flows that time out
// during the dark window and then recover through slow start, so total
// throughput climbs back gradually instead of snapping to the new level
// the moment circuits are up — the effect the paper measures on its
// testbed ("packets get lost on these links, affecting the overall TCP
// performance"). rttSeconds is the round-trip time driving the recovery
// clock.
func OneShotTCPTimeline(oldState, newState *State, rttSeconds float64) ([]Sample, error) {
	if rttSeconds <= 0 {
		return nil, ErrBadRTT
	}
	changed := map[[2]int]bool{}
	linkSet := map[[2]int]bool{}
	for l := range oldState.Circuits {
		linkSet[l] = true
	}
	for l := range newState.Circuits {
		linkSet[l] = true
	}
	for l := range linkSet {
		if oldState.Circuits[l] != newState.Circuits[l] {
			changed[l] = true
		}
	}
	unaffected, affected := 0.0, 0.0
	nAffected := 0
	for _, r := range newState.Routes {
		dark := false
		for _, l := range routeLinks(r.Path) {
			if changed[l] {
				dark = true
				break
			}
		}
		if dark {
			affected += r.Rate
			nAffected++
		} else {
			unaffected += r.Rate
		}
	}
	before := 0.0
	for _, r := range oldState.Routes {
		before += r.Rate
	}
	samples := []Sample{{T: 0, Throughput: before}}
	if nAffected == 0 {
		samples = append(samples, Sample{T: RouteOpSeconds, Throughput: unaffected + affected})
		return samples, nil
	}
	outageRounds := int(CircuitOpSeconds/rttSeconds + 0.5)
	recoveryRounds := 40 * outageRounds
	// Scale: the affected flows together fill `affected` Gbps at steady
	// state; OutageRecovery works in segments, so use its own steady level
	// as the 100% mark.
	flowSamples, err := tcp.OutageRecovery(float64(nAffected)*32, nAffected, 60, outageRounds, recoveryRounds)
	if err != nil {
		return nil, err
	}
	steady := flowSamples[0].Goodput
	if steady <= 0 {
		return nil, ErrDegenerateTCP
	}
	for i, fs := range flowSamples {
		if i == 0 {
			continue // the pre-outage point is already emitted as t=0
		}
		t := RouteOpSeconds + float64(fs.Round-1)*rttSeconds
		samples = append(samples, Sample{
			T:          t,
			Throughput: unaffected + affected*fs.Goodput/steady,
		})
		// Stop once recovered to steady state.
		if fs.Round > outageRounds && fs.Goodput >= steady {
			break
		}
	}
	return samples, nil
}
