package optical

import (
	"fmt"
	"math/rand"
	"testing"

	"owan/internal/topology"
)

// checkLambdaIndex asserts the wavelength-availability index invariant the
// hot paths rely on: for every live fiber, fiberFree is exactly the capacity
// mask with the occupancy knocked out (fiberFree == fiberFree0 &^ fiberUse),
// word for word. Every mutation funnels through claimWave/freeWave, so any
// drift here means a mutation path bypassed them.
func checkLambdaIndex(t *testing.T, ctx string, s *State) {
	t.Helper()
	for id, use := range s.fiberUse {
		if use == nil {
			continue
		}
		f0, ff := s.fiberFree0[id], s.fiberFree[id]
		for j := range use {
			if want := f0[j] &^ use[j]; ff[j] != want {
				t.Fatalf("%s: fiber %d word %d: index %#x, capacity&^use %#x",
					ctx, id, j, ff[j], want)
			}
		}
	}
}

// checkRouteLambda cross-checks the word-ascending intersection against the
// bit-by-bit reference on the pair's whole candidate table (primary plus
// alternates): routeLambda over the free-word summaries must equal
// firstCommonFree over the raw occupancy sets, capped at the tightest
// fiber's wavelength count.
func checkRouteLambda(t *testing.T, ctx string, s *State, u, v int) {
	t.Helper()
	routes := [][]int{s.FiberPathIDs(u, v)}
	for _, alt := range s.pairAlts[u][v] {
		routes = append(routes, alt.ids)
	}
	for ri, ids := range routes {
		if len(ids) == 0 {
			continue
		}
		phi := s.fiberWaves[ids[0]]
		sets := make([]waveSet, 0, len(ids))
		for _, id := range ids {
			if w := s.fiberWaves[id]; w < phi {
				phi = w
			}
			sets = append(sets, s.fiberUse[id])
		}
		if got, want := s.routeLambda(ids), firstCommonFree(sets, phi); got != want {
			t.Fatalf("%s: pair (%d,%d) route %d: routeLambda %d, firstCommonFree %d",
				ctx, u, v, ri, got, want)
		}
	}
}

// TestLambdaIndexMatchesOccupancy is the randomized property test for the
// wavelength-availability index: arbitrary interleavings of every mutation
// path — circuit provisioning, circuit release, delta provisioning, delta
// revert, and full resets — must leave the free-word summaries exactly
// consistent with a from-scratch scan of the occupancy sets, and the cached
// route intersections exactly equal to the bit-by-bit reference. Networks
// with a removed fiber (the WithoutFiber failure shape, which leaves a nil
// hole in the id-indexed tables) are covered by the reduced-net pass.
func TestLambdaIndexMatchesOccupancy(t *testing.T) {
	steps := 140
	if testing.Short() {
		steps = 40
	}
	for ni, net := range deltaTestNets() {
		nets := []*topology.Network{net}
		if len(net.Fibers) > 4 {
			// Reduced variant: drop one mid-list fiber, as a fiber failure
			// does, so the index runs with a nil id slot in its tables.
			clone := *net
			cut := len(net.Fibers) / 2
			clone.Fibers = append(append([]topology.Fiber(nil), net.Fibers[:cut]...), net.Fibers[cut+1:]...)
			nets = append(nets, &clone)
		}
		for vi, n := range nets {
			rng := rand.New(rand.NewSource(int64(9000 + 10*ni + vi)))
			s := NewState(n)
			ns := n.NumSites()
			ctx := func(step int) string { return fmt.Sprintf("net %d/%d step %d", ni, vi, step) }

			// Phase 1: circuit churn. Provisions claim wavelengths along
			// primaries, alternates, and regenerated segments; releases free
			// them in arbitrary order.
			var live []int
			for step := 0; step < steps; step++ {
				if len(live) > 0 && rng.Intn(5) < 2 {
					k := rng.Intn(len(live))
					if err := s.Release(live[k]); err != nil {
						t.Fatalf("%s: release: %v", ctx(step), err)
					}
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					u, v := rng.Intn(ns), rng.Intn(ns)
					if u == v {
						continue
					}
					if c, err := s.Provision(u, v); err == nil {
						live = append(live, c.ID)
					}
				}
				checkLambdaIndex(t, ctx(step), s)
				checkRouteLambda(t, ctx(step), s, rng.Intn(ns), rng.Intn(ns))
			}

			// Phase 2: delta churn against a snapshot — applies and reverts
			// interleave, with occasional re-baselining on the moved set.
			base := topology.InitialTopology(n)
			var snap Snapshot
			s.BuildSnapshot(&snap, base)
			checkLambdaIndex(t, "post-snapshot", s)
			var j Journal
			for step := 0; step < steps/2; step++ {
				cand, removed, added, ok := randomSwapDelta(rng, base)
				if !ok {
					break
				}
				s.ProvisionDelta(&snap, removed, added, &j)
				checkLambdaIndex(t, ctx(step)+" delta", s)
				checkRouteLambda(t, ctx(step)+" delta", s, rng.Intn(ns), rng.Intn(ns))
				if rng.Intn(3) == 0 {
					base = cand
					s.BuildSnapshot(&snap, base)
				} else {
					s.RevertDelta(&j)
				}
				checkLambdaIndex(t, ctx(step)+" revert", s)
			}

			// Phase 3: a reset must restore the full capacity masks.
			s.Reset()
			checkLambdaIndex(t, "post-reset", s)
			for f := range s.fiberFree {
				if s.fiberFree[f] == nil {
					continue
				}
				for w := range s.fiberFree[f] {
					if s.fiberFree[f][w] != s.fiberFree0[f][w] {
						t.Fatalf("net %d/%d: post-reset fiber %d word %d not full: %#x != %#x",
							ni, vi, f, w, s.fiberFree[f][w], s.fiberFree0[f][w])
					}
				}
			}
		}
	}
}
