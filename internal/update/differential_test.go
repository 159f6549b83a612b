package update

import (
	"errors"
	"reflect"
	"testing"
)

// TestFlatPlannerDifferential pins the flat engine bit-identical to the
// retained map-based reference across 300 randomized slot-to-slot plans at
// ISP40/ISP100/ISP200: same rounds, same op order, same forced detours,
// same timeline floats. Every third seed provisions the new state after a
// fiber failure, and every third starves spare wavelengths so the
// deadlock/forced-detour fallback fires; the test asserts both of those
// branches were actually exercised (non-vacuity).
func TestFlatPlannerDifferential(t *testing.T) {
	sizes := []struct{ sites, seeds int }{{40, 150}, {100, 100}, {200, 50}}
	if testing.Short() {
		sizes = []struct{ sites, seeds int }{{40, 30}, {100, 10}, {200, 4}}
	}
	totalDetours, failurePlans, deadlocks := 0, 0, 0
	for _, sz := range sizes {
		g := newCaseGen(sz.sites)
		scr := NewScratch()
		for s := 0; s < sz.seeds; s++ {
			scen := s % numScen
			cfg, oldS, newS := g.gen(int64(1000*sz.sites+s), scen)
			want, werr := referencePlan(cfg, oldS, newS)
			got, gerr := scr.BuildPlan(cfg, oldS, newS)
			if (werr != nil) != (gerr != nil) || (werr != nil && !errors.Is(gerr, werr)) {
				t.Fatalf("sites=%d seed=%d scen=%d: error mismatch: reference=%v flat=%v", sz.sites, s, scen, werr, gerr)
			}
			if werr != nil {
				if errors.Is(werr, ErrDeadlock) {
					deadlocks++
					// Both engines refused; they must also have walked the
					// same partial schedule — same rounds, same forced
					// detours — before giving up.
					partial := &scr.plan // the partial rounds built before ErrDeadlock
					if partial.ForcedDetours != want.ForcedDetours {
						t.Fatalf("sites=%d seed=%d scen=%d: partial detours: flat=%d reference=%d", sz.sites, s, scen, partial.ForcedDetours, want.ForcedDetours)
					}
					if !reflect.DeepEqual(partial.Rounds, want.Rounds) {
						t.Fatalf("sites=%d seed=%d scen=%d: partial plans before deadlock differ: %s", sz.sites, s, scen, diffRounds(partial, want))
					}
					totalDetours += partial.ForcedDetours
				}
				continue
			}
			if got.ForcedDetours != want.ForcedDetours {
				t.Fatalf("sites=%d seed=%d scen=%d: detours: flat=%d reference=%d", sz.sites, s, scen, got.ForcedDetours, want.ForcedDetours)
			}
			if !reflect.DeepEqual(got.Rounds, want.Rounds) {
				t.Fatalf("sites=%d seed=%d scen=%d: plans differ:\nflat:      %v\nreference: %v", sz.sites, s, scen, diffRounds(got, want), want.Rounds)
			}
			wtl := referenceTimeline(want, oldS)
			gtl := scr.Timeline(got, oldS)
			if !reflect.DeepEqual(gtl, wtl) {
				t.Fatalf("sites=%d seed=%d scen=%d: timelines differ:\nflat:      %v\nreference: %v", sz.sites, s, scen, gtl, wtl)
			}
			totalDetours += got.ForcedDetours
			if scen == scenFailure {
				failurePlans++
			}
		}
	}
	if totalDetours == 0 {
		t.Fatalf("no generated case forced a detour; the fallback path went untested")
	}
	if failurePlans == 0 {
		t.Fatalf("no fiber-failure case produced a plan; the failure path went untested")
	}
	t.Logf("differential: %d forced detours, %d failure-case plans, %d shared deadlocks", totalDetours, failurePlans, deadlocks)
}

// diffRounds summarizes the first diverging round for failure messages.
func diffRounds(got, want *Plan) string {
	for i := range got.Rounds {
		if i >= len(want.Rounds) || !reflect.DeepEqual(got.Rounds[i], want.Rounds[i]) {
			return "first divergence at round " + itoa(i)
		}
	}
	return "flat has fewer rounds: " + itoa(len(got.Rounds)) + " vs " + itoa(len(want.Rounds))
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestDuplicateRouteRejectedByBothEngines: a state carrying the same
// (TransferID, Path) twice violates the route-identity invariant; both
// engines must refuse it with ErrDuplicateRoute instead of silently
// collapsing the duplicate.
func TestDuplicateRouteRejectedByBothEngines(t *testing.T) {
	g := newCaseGen(40)
	cfg, oldS, newS := g.gen(42, scenBase)
	if len(newS.Routes) == 0 {
		t.Fatal("generated case has no routes")
	}
	newS.Routes = append(newS.Routes, newS.Routes[0])
	if _, err := referencePlan(cfg, oldS, newS); !errors.Is(err, ErrDuplicateRoute) {
		t.Fatalf("reference: got %v, want ErrDuplicateRoute", err)
	}
	if _, err := NewScratch().BuildPlan(cfg, oldS, newS); !errors.Is(err, ErrDuplicateRoute) {
		t.Fatalf("flat: got %v, want ErrDuplicateRoute", err)
	}
}

// TestTimelineStepConsistency replays flat-engine plans on realistic cases
// round by round and checks the plan and its timeline agree step for step:
// no link is oversubscribed after any round, no fiber count goes negative,
// and every timeline sample equals the live-route sum of the replayed
// state at that round boundary. The curve itself is pinned bit-identical
// to referenceTimeline by the differential; this test checks the curve is
// consistent with what the rounds actually do.
func TestTimelineStepConsistency(t *testing.T) {
	sizes := []struct{ sites, seeds int }{{40, 40}, {100, 12}}
	if testing.Short() {
		sizes = []struct{ sites, seeds int }{{40, 8}}
	}
	for _, sz := range sizes {
		g := newCaseGen(sz.sites)
		scr := NewScratch()
		for s := 0; s < sz.seeds; s++ {
			cfg, oldS, newS := g.gen(int64(7000*sz.sites+s), s%3)
			plan, err := scr.BuildPlan(cfg, oldS, newS)
			if err != nil {
				continue
			}
			tl := scr.Timeline(plan, oldS)
			if len(tl) != len(plan.Rounds)+1 {
				t.Fatalf("sites=%d seed=%d: %d samples for %d rounds", sz.sites, s, len(tl), len(plan.Rounds))
			}

			circuits := map[[2]int]int{}
			for l, c := range oldS.Circuits {
				circuits[l] = c
			}
			freeW := map[int]int{}
			for f, c := range cfg.FiberFree {
				freeW[f] = c
			}
			// Link loads replay the engine's own accounting (op-rate
			// arithmetic); the live-route table replays the timeline's
			// keyed-upsert semantics, which is what each sample sums.
			load := map[[2]int]float64{}
			live := map[rkey]float64{}
			for _, r := range oldS.Routes {
				for _, l := range routeLinks(r.Path) {
					load[l] += r.Rate
				}
				live[routeKeyOf(r.TransferID, r.Path)] = r.Rate
			}
			check := func(round int) {
				for l, ld := range load {
					if ld > float64(circuits[l])*cfg.Theta+1e-6 {
						t.Fatalf("sites=%d seed=%d round %d: link %v oversubscribed: %.3f > %d×θ", sz.sites, s, round, l, ld, circuits[l])
					}
				}
				for f, c := range freeW {
					if c < 0 {
						t.Fatalf("sites=%d seed=%d round %d: fiber %d wavelength count negative", sz.sites, s, round, f)
					}
				}
				carried := 0.0
				for _, rate := range live {
					carried += rate
				}
				if d := tl[round].Throughput - carried; d > 1e-6 || d < -1e-6 {
					t.Fatalf("sites=%d seed=%d round %d: timeline says %.6f Gbps, replay carries %.6f", sz.sites, s, round, tl[round].Throughput, carried)
				}
			}
			check(0)
			for i, round := range plan.Rounds {
				for _, o := range round.Ops {
					switch o.Kind {
					case RemoveRoute:
						for _, l := range routeLinks(o.Path) {
							load[l] -= o.Rate
						}
						delete(live, routeKeyOf(o.TransferID, o.Path))
					case AddRoute:
						for _, l := range routeLinks(o.Path) {
							load[l] += o.Rate
						}
						live[routeKeyOf(o.TransferID, o.Path)] = o.Rate
					case ChangeRoute:
						for _, l := range routeLinks(o.Path) {
							load[l] += o.Rate - o.OldRate
						}
						live[routeKeyOf(o.TransferID, o.Path)] = o.Rate
					case RemoveCircuit:
						circuits[o.Link]--
						for _, f := range o.Fibers {
							freeW[f]++
						}
					case AddCircuit:
						circuits[o.Link]++
						for _, f := range o.Fibers {
							freeW[f]--
						}
					}
				}
				check(i + 1)
			}
			// Terminal circuits must equal the target.
			for l, wantC := range newS.Circuits {
				if circuits[l] != wantC {
					t.Fatalf("sites=%d seed=%d: terminal circuits on %v: %d want %d", sz.sites, s, l, circuits[l], wantC)
				}
			}
		}
	}
}
