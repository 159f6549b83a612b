package optical

import (
	"owan/internal/topology"
)

// LinkCircuits records the circuits provisioned for one network-layer link.
type LinkCircuits struct {
	U, V     int
	Want     int   // requested parallel circuits
	Built    int   // circuits actually provisioned
	Circuits []int // circuit ids
}

// TopologyPlan is the result of realizing a network-layer topology in the
// optical layer: per-link circuit counts after applying wavelength, reach
// and regenerator constraints (Algorithm 3, lines 2–14 of the paper).
type TopologyPlan struct {
	Links []LinkCircuits
}

// Effective returns the effective link capacities (in circuits) as a
// LinkSet: the requested topology with capacities reduced where the optical
// layer could not satisfy them.
func (tp *TopologyPlan) Effective(n int) *topology.LinkSet {
	ls := topology.NewLinkSet(n)
	for _, lc := range tp.Links {
		if lc.Built > 0 {
			ls.Add(lc.U, lc.V, lc.Built)
		}
	}
	return ls
}

// ProvisionTopology provisions circuits for every link of the desired
// network-layer topology on a fresh optical state. Links are processed in
// deterministic (U, V)-sorted order — exactly the order LinkSet.Links
// returns them. If the optical layer cannot supply all requested circuits
// for a link, the link's capacity is decreased (paper Alg 3 lines 13–14)
// rather than failing the whole topology.
//
// The state is Reset first: topology realization is evaluated from scratch,
// matching the stateless energy computation of the annealing search.
func (s *State) ProvisionTopology(ls *topology.LinkSet) *TopologyPlan {
	s.Reset()
	links := ls.Links()
	plan := &TopologyPlan{}
	for _, l := range links {
		lc := LinkCircuits{U: l.U, V: l.V, Want: l.Count}
		for k := 0; k < l.Count; k++ {
			c, err := s.Provision(l.U, l.V)
			if err != nil {
				break
			}
			lc.Built++
			lc.Circuits = append(lc.Circuits, c.ID)
		}
		plan.Links = append(plan.Links, lc)
	}
	return plan
}

// ProvisionEffectiveEnum realizes the desired topology exactly like
// ProvisionTopology but materializes no Circuit records and no plan: it
// returns only the effective link capacities, which is all the annealing
// energy function consumes. The provisioning decisions — and therefore the
// resulting capacities — are identical to ProvisionTopology's, because
// decisions depend only on the mutable occupancy (wavelength bitsets and
// regenerator pools), never on the recorded circuits.
//
// The capacities come back as the effective (U, V)-sorted link enumeration,
// not a LinkSet: the serial energy path consumes them only through the
// allocator's ThroughputLinks. The returned slice lives in the State's
// scratch area and is valid until the next ProvisionEffectiveEnum call on
// this State.
func (s *State) ProvisionEffectiveEnum(ls *topology.LinkSet) []topology.Link {
	sc := s.scratchBuf()
	sc.links = ls.AppendLinks(sc.links[:0])
	sc.effLinks = s.ProvisionEffectiveLinks(sc.links, sc.effLinks[:0])
	return sc.effLinks
}

// ProvisionEffectiveLinks is ProvisionEffectiveEnum for callers that already
// hold the (U, V)-sorted enumeration of the requested topology: it provisions
// the same circuit sequence and appends the same effective enumeration to
// effOut, with no LinkSet walked on the way in. This is the
// cold-fallback path of the annealing delta evaluator, which evaluates
// candidates as merged enumerations without ever building them as LinkSets.
func (s *State) ProvisionEffectiveLinks(links []topology.Link, effOut []topology.Link) []topology.Link {
	s.Reset()
	for _, l := range links {
		built := 0
		for k := 0; k < l.Count; k++ {
			if _, err := s.provision(l.U, l.V, false); err != nil {
				break
			}
			built++
		}
		if built > 0 {
			effOut = append(effOut, topology.Link{U: l.U, V: l.V, Count: built})
		}
	}
	return effOut
}
