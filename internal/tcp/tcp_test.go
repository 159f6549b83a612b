package tcp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSlowStartDoubles(t *testing.T) {
	f := NewFlow()
	f.step(false)
	f.step(false)
	if f.Cwnd != 4 {
		t.Errorf("cwnd = %v after two lossless RTTs, want 4", f.Cwnd)
	}
}

func TestLossHalves(t *testing.T) {
	f := NewFlow()
	f.Cwnd, f.SSThresh = 32, 8 // congestion avoidance
	f.step(true)
	if f.Cwnd != 16 || f.SSThresh != 16 {
		t.Errorf("after loss cwnd=%v ssthresh=%v, want 16/16", f.Cwnd, f.SSThresh)
	}
	f.step(false)
	if f.Cwnd != 17 {
		t.Errorf("congestion avoidance should add 1, got %v", f.Cwnd)
	}
}

func TestBlockedCollapses(t *testing.T) {
	f := NewFlow()
	f.Cwnd = 64
	f.Blocked = true
	f.step(false)
	if f.Cwnd != 1 {
		t.Errorf("blocked flow should collapse to 1, got %v", f.Cwnd)
	}
}

func TestBottleneckSawtooth(t *testing.T) {
	b, err := NewBottleneck(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up past slow start; goodput should hover near capacity with the
	// classic sawtooth: average utilization well above 50%.
	for i := 0; i < 50; i++ {
		b.Step()
	}
	sum := 0.0
	const rounds = 100
	for i := 0; i < rounds; i++ {
		b.Step()
		sum += b.Goodput()
	}
	if util := sum / rounds / 100; util < 0.6 || util > 1.0 {
		t.Errorf("average utilization = %v, want sawtooth in (0.6, 1]", util)
	}
}

func TestFairnessConverges(t *testing.T) {
	// Two synchronized flows end with equal windows (synchronous loss model).
	b, err := NewBottleneck(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.Flows[0].Cwnd, b.Flows[0].SSThresh = 90, 45
	b.Flows[1].Cwnd, b.Flows[1].SSThresh = 10, 5
	for i := 0; i < 400; i++ {
		b.Step()
	}
	r := b.Flows[0].Cwnd / b.Flows[1].Cwnd
	if r > 1.8 || r < 0.55 {
		t.Errorf("window ratio = %v, want near fairness (synchronized AIMD narrows the gap)", r)
	}
}

func TestOutageRecoveryShape(t *testing.T) {
	samples, err := OutageRecovery(200, 8, 60, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	pre := samples[0].Goodput
	if pre <= 0 {
		t.Fatal("no steady-state goodput")
	}
	// During the outage goodput is zero.
	for i := 1; i <= 3; i++ {
		if samples[i].Goodput != 0 {
			t.Errorf("round %d: goodput %v during outage, want 0", i, samples[i].Goodput)
		}
	}
	// Recovery happens but not instantly: at least one post-outage round
	// below 90% of the pre-outage level, and eventually >= 90%.
	rec := RecoveryRounds(samples, 3, 0.9)
	if rec <= 0 {
		t.Fatalf("never recovered to 90%% (samples %+v)", samples[:10])
	}
	if rec == 1 {
		t.Error("recovery should take multiple RTTs after a timeout collapse")
	}
}

func TestOutageRecoveryValidation(t *testing.T) {
	if _, err := OutageRecovery(0, 1, 1, 1, 1); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := OutageRecovery(10, 0, 1, 1, 1); err == nil {
		t.Error("zero flows accepted")
	}
	if _, err := OutageRecovery(10, 1, 0, 1, 1); err == nil {
		t.Error("zero warmup accepted")
	}
}

// Property: goodput never exceeds capacity and cwnd stays positive.
func TestInvariants(t *testing.T) {
	check := func(seed int64) bool {
		capSeg := 20 + float64(seed%200)
		if capSeg < 1 {
			capSeg = 50
		}
		n := 1 + int(seed%7+7)%7
		if n < 1 {
			n = 1
		}
		b, err := NewBottleneck(capSeg, n)
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			b.Step()
			if b.Goodput() > capSeg+1e-9 {
				return false
			}
			for _, f := range b.Flows {
				if f.Cwnd < 1 || math.IsNaN(f.Cwnd) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// RecoveryRounds returns how many rounds after the outage the goodput
// needs to regain the given fraction of its pre-outage level.
func RecoveryRounds(samples []Sample, outageRounds int, fraction float64) int {
	if len(samples) == 0 {
		return -1
	}
	target := samples[0].Goodput * fraction
	for i := outageRounds + 1; i < len(samples); i++ {
		if samples[i].Goodput >= target {
			return samples[i].Round - samples[outageRounds].Round
		}
	}
	return -1
}
