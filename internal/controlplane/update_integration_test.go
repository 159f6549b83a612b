package controlplane

import (
	"context"
	"testing"
)

// TestTickProducesConsistentUpdatePlan checks that every tick, the first
// included, yields a scheduled cross-layer update (§3.3 integrated into the
// controller).
func TestTickProducesConsistentUpdatePlan(t *testing.T) {
	ctrl, addr := newTestController(t, nil)
	cl, err := Dial(context.Background(), addr, WithSite(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Several long transfers so demand persists across slots and the
	// topology actually changes.
	for i := 0; i < 6; i++ {
		if _, err := cl.Submit(context.Background(), WireRequest{Src: i % 9, Dst: (i + 4) % 9, SizeGbits: 50000}); err != nil {
			t.Fatal(err)
		}
	}
	// First tick: the rollout starts from the initial topology, which
	// carries no routes, so the plan installs at least the first routes.
	ctrl.Tick()
	if p := ctrl.LastUpdatePlan(); !p.Planned || p.Err || p.Ops == 0 || p.Rounds <= 0 || p.Seconds <= 0 {
		t.Errorf("first tick should schedule its update from the initial topology: %+v", p)
	}
	sawPlan := false
	for i := 0; i < 5; i++ {
		ctrl.Tick()
		p := ctrl.LastUpdatePlan()
		if p.Err {
			t.Fatalf("tick %d: no consistent update plan: %+v", i, p)
		}
		if p.Ops > 0 {
			sawPlan = true
			if p.Rounds <= 0 || p.Seconds <= 0 {
				t.Errorf("plan with ops but rounds=%d seconds=%v", p.Rounds, p.Seconds)
			}
		}
	}
	if !sawPlan {
		t.Error("no tick produced a nonempty update plan despite topology churn")
	}
}
