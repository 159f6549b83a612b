package optical

import "fmt"

// Test-only accessors and the reference wavelength scan. Production code
// reads occupancy through the route and provisioning paths; these let the
// tests inspect it and tear circuits down.

func (w waveSet) has(i int) bool { return w[i/64]&(1<<(i%64)) != 0 }

// firstCommonFree returns the lowest wavelength index free in every given
// fiber set, or -1. It is the bit-by-bit reference the wavelength-
// availability index (State.fiberFree) is differentially tested against;
// the hot paths answer from the free-word summaries instead.
func firstCommonFree(sets []waveSet, phi int) int {
	for i := 0; i < phi; i++ {
		free := true
		for _, s := range sets {
			if s.has(i) {
				free = false
				break
			}
		}
		if free {
			return i
		}
	}
	return -1
}

// RegenFree returns the number of spare regenerators at site v.
func (s *State) RegenFree(v int) int { return s.regenFree[v] }

// WavelengthsUsed returns the number of wavelengths in use on fiber f.
func (s *State) WavelengthsUsed(f int) int {
	if f < 0 || f >= len(s.fiberUse) {
		return 0
	}
	return s.fiberUse[f].popcount()
}

// Circuit returns a live circuit by id.
func (s *State) Circuit(id int) (*Circuit, bool) {
	c, ok := s.circuits[id]
	return c, ok
}

// Release tears down a circuit, returning its wavelengths and regenerators
// to the pools.
func (s *State) Release(id int) error {
	c, ok := s.circuits[id]
	if !ok {
		return fmt.Errorf("optical: unknown circuit %d", id)
	}
	for _, seg := range c.Segments {
		for _, fid := range seg.FiberIDs {
			s.freeWave(fid, seg.Wavelength)
		}
	}
	for _, r := range c.RegenSites {
		s.setRegen(r, s.regenFree[r]+1)
	}
	delete(s.circuits, id)
	return nil
}

// TotalBuilt returns the number of circuits provisioned across all links.
func (tp *TopologyPlan) TotalBuilt() int {
	t := 0
	for _, lc := range tp.Links {
		t += lc.Built
	}
	return t
}
