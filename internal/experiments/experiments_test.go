package experiments

import (
	"math"
	"testing"

	"owan/internal/metrics"
)

func quick() Scale {
	sc := QuickScale()
	sc.HorizonSlots = 4
	sc.OwanIterations = 120
	return sc
}

func TestBuildTopologies(t *testing.T) {
	sc := quick()
	for _, k := range append([]TopoKind{ISP200}, AllTopos...) {
		net, err := BuildTopology(k, sc, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Validate(); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
	if _, err := BuildTopology("nope", sc, 1); err == nil {
		t.Error("unknown topology accepted")
	}
}

// approachNames lists every runnable approach.
var approachNames = []string{
	"owan", "maxflow", "maxminfract", "swan", "tempus", "amoeba",
	"rate-only", "rate-routing", "greedy-separate",
}

func TestRunEveryApproach(t *testing.T) {
	sc := quick()
	for _, ap := range approachNames {
		sigma := 0.0
		if ap == "tempus" || ap == "amoeba" {
			sigma = 10
		}
		res, err := Run(RunSpec{Topo: Internet2, Approach: ap, Load: 0.5, DeadlineFactor: sigma, Seed: 1, Scale: sc})
		if err != nil {
			t.Fatalf("%s: %v", ap, err)
		}
		done := len(res.Completed())
		if done == 0 {
			t.Errorf("%s: no transfers completed", ap)
		}
	}
	if _, err := Run(RunSpec{Topo: Internet2, Approach: "nope", Load: 1, Scale: sc}); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestDemandScalesWithUtilization(t *testing.T) {
	sc := quick()
	net, _ := BuildTopology(Internet2, sc, 1)
	d1 := demandGbits(net, sc)
	sc.Utilization = 1.2
	if d2 := demandGbits(net, sc); d2 <= d1 {
		t.Error("demand should grow with utilization")
	}
}

func TestFig7QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	sc := quick()
	figs, err := Fig7(Internet2, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("got %d figures", len(figs))
	}
	fa := figs[0]
	// Every load has a factor for every baseline, and factors are positive.
	for _, load := range Loads {
		for _, base := range fig7Baselines {
			y, ok := fa.Get("vs-"+base+"-avg", load)
			if !ok || y <= 0 || math.IsNaN(y) {
				t.Errorf("missing/invalid factor for %s at load %v: %v", base, load, y)
			}
		}
	}
	// The paper's headline shape: Owan at least matches the baselines on
	// average across the sweep (factor >= ~1).
	sum, n := 0.0, 0
	for _, load := range Loads {
		for _, base := range fig7Baselines {
			if y, ok := fa.Get("vs-"+base+"-avg", load); ok && !math.IsInf(y, 1) {
				sum += y
				n++
			}
		}
	}
	if n == 0 || sum/float64(n) < 1.0 {
		t.Errorf("mean factor of improvement = %v over %d cells, want >= 1", sum/float64(n), n)
	}
}

func TestFig10dBudgetsImprove(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// The sweep's ends, short of its costliest point: the 1600-iteration
	// budget should be no worse than the 25-iteration one (Fig 10d: quality
	// converges with search effort).
	const small, large = 25, 1600
	f, err := fig10d(quick(), []int{small, large})
	if err != nil {
		t.Fatal(err)
	}
	lo, ok1 := f.Get("owan", small)
	hi, ok2 := f.Get("owan", large)
	if !ok1 || !ok2 {
		t.Fatal("missing budget points")
	}
	if hi > lo*1.15 {
		t.Errorf("%d-iteration budget avg %v much worse than %d-iteration budget %v", large, hi, small, lo)
	}
}

func TestValidationWithin10Pct(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	f, err := Validation(quick())
	if err != nil {
		t.Fatal(err)
	}
	d, ok := f.Get("divergence-pct", 0)
	if !ok {
		t.Fatal("no divergence recorded")
	}
	if d > 10 {
		t.Errorf("sim/emu divergence %.1f%% exceeds 10%%", d)
	}
}

func TestFig10bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	f, err := Fig10bAt(InterDC, quick())
	if err != nil {
		t.Fatal(err)
	}
	// Consistent update min throughput >= one-shot min throughput.
	minOf := func(series string) float64 {
		m := math.Inf(1)
		for _, x := range f.Xs() {
			if y, ok := f.Get(series, x); ok && y < m {
				m = y
			}
		}
		return m
	}
	cons, oneShot := minOf("consistent"), minOf("one-shot")
	if math.IsInf(cons, 1) || math.IsInf(oneShot, 1) {
		t.Fatal("missing series")
	}
	if cons < oneShot {
		t.Errorf("consistent min %v below one-shot min %v", cons, oneShot)
	}
}

func TestCollectDeadlineMetrics(t *testing.T) {
	sc := quick()
	out, err := collectCells(Internet2, []cellSpec{{"owan", 1, 10}}, sc)
	if err != nil {
		t.Fatal(err)
	}
	st := out[0]
	if st.deadline.TransfersMetPct < 0 || st.deadline.TransfersMetPct > 100 {
		t.Errorf("met pct out of range: %v", st.deadline.TransfersMetPct)
	}
	if st.deadline.BytesMetPct < 0 || st.deadline.BytesMetPct > 100+1e-9 {
		t.Errorf("bytes pct out of range: %v", st.deadline.BytesMetPct)
	}
}

func TestMetricsSanity(t *testing.T) {
	sc := quick()
	res, err := Run(RunSpec{Topo: ISP, Approach: "rate-routing", Load: 1, Seed: 3, Scale: sc})
	if err != nil {
		t.Fatal(err)
	}
	ct := metrics.CompletionTimes(res.Transfers, SlotSeconds)
	for _, x := range ct {
		if x <= 0 {
			t.Errorf("nonpositive completion time %v", x)
		}
	}
}
