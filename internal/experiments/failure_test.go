package experiments

import (
	"io"
	"math"
	"testing"

	"owan/internal/emu"
	"owan/internal/metrics"
	"owan/internal/sim"
	"owan/internal/topology"
)

func TestFailureRecoveryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	sc := quick()
	f, err := FailureRecovery(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Both series exist, and Owan's post-failure goodput beats SWAN's.
	failT := float64(sc.HorizonSlots/2) * SlotSeconds
	var owan, swan float64
	var n int
	for _, x := range f.Xs() {
		if x < failT {
			continue
		}
		yo, ok1 := f.Get("owan", x)
		ys, ok2 := f.Get("swan", x)
		if !ok1 || !ok2 {
			continue
		}
		owan += yo
		swan += ys
		n++
	}
	if n == 0 {
		t.Fatal("no post-failure samples")
	}
	if math.IsNaN(owan) || owan <= swan {
		t.Errorf("post-failure goodput: owan %v <= swan %v", owan, swan)
	}
}

func TestFailureCorrelatedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	sc := quick()
	f, err := FailureCorrelated(sc, sc.ISPSites)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "failure-isp25" {
		t.Errorf("figure id %q", f.ID)
	}
	// Both approaches carry goodput, and the planner produced at least one
	// real (positive-duration) consistent schedule for each.
	for _, ap := range []string{"owan", "swan"} {
		var goodput, updSecs float64
		for _, x := range f.Xs() {
			if y, ok := f.Get(ap, x); ok {
				goodput += y
			}
			if y, ok := f.Get(ap+"-update-seconds", x); ok {
				updSecs += y
			}
		}
		if goodput <= 0 {
			t.Errorf("%s: no goodput recorded", ap)
		}
		if updSecs <= 0 {
			t.Errorf("%s: no update schedule carried any wall-clock time", ap)
		}
	}
}

func TestCorrelatedHubCutKeepsConnectivity(t *testing.T) {
	for _, sites := range []int{12, 25, 40} {
		net := topology.ISP(sites, 8, 1)
		cut := correlatedHubCut(net)
		if len(cut) != 2 {
			t.Fatalf("isp%d: got %d cut fibers", sites, len(cut))
		}
		// Re-check: the surviving fiber graph stays connected.
		isCut := map[int]bool{cut[0]: true, cut[1]: true}
		seen := make([]bool, len(net.Sites))
		seen[0] = true
		queue := []int{0}
		n := 1
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, fb := range net.Fibers {
				if isCut[fb.ID] {
					continue
				}
				w := -1
				if fb.A == v {
					w = fb.B
				} else if fb.B == v {
					w = fb.A
				}
				if w >= 0 && !seen[w] {
					seen[w] = true
					n++
					queue = append(queue, w)
				}
			}
		}
		if n != len(net.Sites) {
			t.Errorf("isp%d: cut %v disconnects the fiber graph (%d/%d reachable)",
				sites, cut, n, len(net.Sites))
		}
	}
}

// cutRun runs FailureRecovery's quick Internet2 cell (load 1.5, workload
// seed 71, fibers 0 and 3 cut at HorizonSlots/2) for approach ap with a 4 s
// reconfiguration dark time and the update planner on, over the fluid model
// or, if emulate, the emulated testbed. It returns the mean completion time
// in seconds.
func cutRun(t *testing.T, sc Scale, ap string, emulate bool) float64 {
	t.Helper()
	net, err := BuildTopology(Internet2, sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := Workload(Internet2, net, sc, 1.5, 0, 71)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Scheduler(ap, net, sc, false, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ts, ok := sched.(*sim.TEScheduler); ok {
		ts.Net = net
	}
	if c, ok := sched.(io.Closer); ok {
		defer c.Close()
	}
	var dp sim.DataPlane
	if emulate {
		if dp, err = emu.New(net.ThetaGbps); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sim.Run(sim.Config{
		Net: net, Initial: topology.InitialTopology(net), Scheduler: sched,
		Requests: reqs, SlotSeconds: SlotSeconds, MaxSlots: 50 * sc.HorizonSlots,
		ReconfigSeconds: 4, PlanUpdates: true, DataPlane: dp,
		FiberFailures: map[int][]int{sc.HorizonSlots / 2: {0, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed()) != len(res.Transfers) {
		t.Fatalf("%s did not drain after the cut", res.Name)
	}
	return metrics.Mean(metrics.CompletionTimes(res.Transfers, SlotSeconds))
}

// TestValidationEmuVsSimUnderCuts extends the §5.1 validation past the calm
// path: through a two-fiber cut, reconfiguration dark time and the update
// planner, the fluid model and the emulated testbed agree on mean
// completion time within 10% for the network-layer baselines.
func TestValidationEmuVsSimUnderCuts(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	sc := QuickScale()
	for _, ap := range []string{"maxflow", "swan"} {
		s, e := cutRun(t, sc, ap, false), cutRun(t, sc, ap, true)
		d := math.Abs(s-e) / s
		t.Logf("%s: sim %.1f s, emu %.1f s, divergence %.1f%%", ap, s, e, 100*d)
		if d > 0.10 {
			t.Errorf("%s under cuts: sim %v vs emu %v, divergence %.1f%% exceeds 10%%", ap, s, e, 100*d)
		}
	}
}
