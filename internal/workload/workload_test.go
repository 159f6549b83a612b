package workload

import (
	"math"
	"testing"

	"owan/internal/transfer"
)

func baseCfg() Config {
	return Config{
		Sites:            9,
		MeanSizeGbits:    500 * GB,
		TotalDemandGbits: 500 * TB,
		Load:             1,
		DurationSlots:    24,
		Seed:             42,
	}
}

func TestGenerateBasic(t *testing.T) {
	reqs, err := Generate(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) < 50 {
		t.Fatalf("only %d transfers generated", len(reqs))
	}
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if r.Arrival < 0 || r.Arrival >= 24 {
			t.Errorf("arrival %d out of horizon", r.Arrival)
		}
		if r.Deadline != transfer.NoDeadline {
			t.Errorf("deadlines disabled but transfer %d has one", r.ID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(baseCfg())
	b, _ := Generate(baseCfg())
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := baseCfg()
	a, _ := Generate(cfg)
	cfg.Seed = 43
	b, _ := Generate(cfg)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestLoadScalesVolume(t *testing.T) {
	cfg := baseCfg()
	cfg.Load = 0.5
	low, _ := Generate(cfg)
	cfg.Load = 2.0
	high, _ := Generate(cfg)
	lv, hv := TotalGbits(low), TotalGbits(high)
	if hv < 2*lv {
		t.Errorf("volume at load 2 (%v) should be well above 2x volume at load 0.5 (%v)", hv, lv)
	}
}

func TestExponentialSizes(t *testing.T) {
	cfg := baseCfg()
	cfg.TotalDemandGbits = 5000 * TB // plenty of budget for a good sample
	reqs, _ := Generate(cfg)
	if len(reqs) < 200 {
		t.Skipf("sample too small: %d", len(reqs))
	}
	mean := TotalGbits(reqs) / float64(len(reqs))
	if mean < 0.5*cfg.MeanSizeGbits || mean > 1.5*cfg.MeanSizeGbits {
		t.Errorf("empirical mean %v vs configured %v", mean, cfg.MeanSizeGbits)
	}
	// Exponential: coefficient of variation ~1.
	var ss float64
	for _, r := range reqs {
		d := r.SizeGbits - mean
		ss += d * d
	}
	cv := math.Sqrt(ss/float64(len(reqs))) / mean
	if cv < 0.6 || cv > 1.4 {
		t.Errorf("size CV = %v, want ~1 for exponential", cv)
	}
}

func TestDeadlineRange(t *testing.T) {
	cfg := baseCfg()
	cfg.DeadlineFactor = 20
	reqs, _ := Generate(cfg)
	for _, r := range reqs {
		if r.Deadline == transfer.NoDeadline {
			t.Fatal("deadline factor set but no deadline assigned")
		}
		lag := r.Deadline - r.Arrival
		if lag < 1 || lag > 20 {
			t.Errorf("deadline lag %d outside [1, 20]", lag)
		}
	}
}

func TestHotspotsBiasTraffic(t *testing.T) {
	cfg := baseCfg()
	cfg.Sites = 25
	cfg.Hotspots = true
	cfg.HotspotSites = 5
	reqs, _ := Generate(cfg)
	if len(reqs) == 0 {
		t.Fatal("no transfers")
	}
	// Hotspot sources are restricted to the first 5 sites; they should be
	// heavily over-represented as sources.
	hot := 0
	for _, r := range reqs {
		if r.Src < 5 {
			hot++
		}
	}
	if frac := float64(hot) / float64(len(reqs)); frac < 0.3 {
		t.Errorf("hotspot share = %v, want >= 0.3", frac)
	}
}

func TestSiteWeightsNormalized(t *testing.T) {
	w := SiteWeights(40, 1)
	sum := 0.0
	for _, x := range w {
		if x <= 0 {
			t.Error("nonpositive weight")
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum = %v", sum)
	}
	// Heavy tail: max weight should dominate min weight.
	lo, hi := w[0], w[0]
	for _, x := range w {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if hi/lo < 3 {
		t.Errorf("weights too uniform: max/min = %v", hi/lo)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	for _, mod := range []func(*Config){
		func(c *Config) { c.Sites = 1 },
		func(c *Config) { c.MeanSizeGbits = 0 },
		func(c *Config) { c.Load = 0 },
		func(c *Config) { c.DurationSlots = 0 },
		func(c *Config) { c.TotalDemandGbits = -1 },
	} {
		cfg := baseCfg()
		mod(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

// TotalGbits sums the request sizes.
func TotalGbits(reqs []transfer.Request) float64 {
	t := 0.0
	for _, r := range reqs {
		t += r.SizeGbits
	}
	return t
}
