package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"owan/internal/topology"
	"owan/internal/transfer"
)

// miniWorkloads are the three workload shapes at a scale that runs in about a
// second each: Internet2, a handful of slots, one fiber cut, half a second of
// submits.
func miniWorkloads() []workload {
	i2 := func() *topology.Network { return topology.Internet2(8) }
	slot := simSpec{name: "mini-slot", net: i2, arrivalSlots: 4, slots: 6}
	cut := simSpec{name: "mini-cut", net: i2, arrivalSlots: 4, slots: 6, cutFrom: 2, cutEvery: 100}
	ctl := ctlSpec{name: "mini-ctl", net: i2, clients: 2, ratePerClient: 100, tickEvery: 50 * time.Millisecond, meanGbit: 2000}
	return []workload{
		{slot.name, "", func(seed int64, sec float64, tr bool, r *result) error { return runSim(slot, seed, sec, tr, r) }},
		{cut.name, "", func(seed int64, sec float64, tr bool, r *result) error { return runSim(cut, seed, sec, tr, r) }},
		{ctl.name, "", func(seed int64, sec float64, tr bool, r *result) error { return runCtl(ctl, seed, sec, tr, r) }},
	}
}

// TestEveryMetricEmittedOnce runs each workload shape untraced and traced and
// checks that every declared metric comes out exactly once (result.set rejects
// a second value or an undeclared name), that the end-to-end ones are never 0,
// and that the final line has the shape the driver reads.
func TestEveryMetricEmittedOnce(t *testing.T) {
	for _, w := range miniWorkloads() {
		for _, traced := range []bool{false, true} {
			rec, r := measure(w, 7, 0.5, traced, t.TempDir())
			for _, err := range r.errs {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			if rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, rec.Failed, rec.Attempted)
			}
			for _, d := range endToEnd {
				if v, ok := rec.Metrics[d.Name]; !ok || v <= 0 || math.IsNaN(v) {
					t.Errorf("%s traced=%v: end-to-end metric %s = %v", w.name, traced, d.Name, v)
				}
			}
			want := endToEnd
			if traced {
				want = perLayer
				if _, err := os.Stat(filepath.Join(r.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: traced run left no span file: %v", w.name, err)
				}
			}
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted int   `json:"attempted"`
				Failed    int   `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(finalLine(rec)), &line); err != nil {
				t.Fatalf("%s: final line: %v", w.name, err)
			}
			if line.Correct == nil || !*line.Correct || len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: final line has %d metrics, want %d", w.name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: final line lacks %s [%s]", w.name, traced, d.Name, d.Unit)
				}
			}
		}
	}
}

// TestNamesMatchBenchmarkJSON pins the program's vocabulary to the committed
// BENCHMARK.json: the same workloads, metrics and units, in the same order.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	ws := workloads()
	if len(ws) != len(bf.Workloads) {
		t.Fatalf("%d workloads in the program, %d in BENCHMARK.json", len(ws), len(bf.Workloads))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: program has %q (%q), BENCHMARK.json %q (%q)", i, w.name, w.why, bf.Workloads[i].Name, bf.Workloads[i].Why)
		}
	}
	for _, c := range []struct {
		what      string
		have, got []metricDef
	}{{"end_to_end", endToEnd, bf.EndToEnd}, {"per_layer", perLayer, bf.PerLayer}} {
		if len(c.have) != len(c.got) {
			t.Errorf("%s: %d metrics in the program, %d in BENCHMARK.json", c.what, len(c.have), len(c.got))
			continue
		}
		for i := range c.have {
			if c.have[i] != c.got[i] {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", c.what, i, c.have[i], c.got[i])
			}
		}
	}
	hasSetup := false
	for _, d := range bf.EndToEnd {
		hasSetup = hasSetup || d == metricDef{"setup_s", "s"}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s]")
	}
}

// TestSlotOutputCheckCatchesViolations feeds the output check one slot that
// overloads a link and one that overshoots a transfer's remaining size.
func TestSlotOutputCheckCatchesViolations(t *testing.T) {
	net := topology.Internet2(8)
	topo := topology.NewLinkSet(net.NumSites())
	topo.Add(0, 1, 1)
	tr := &transfer.Transfer{Request: transfer.Request{ID: 1, Src: 0, Dst: 1, SizeGbits: 1e6}, Remaining: 1e6}
	alloc := func(rate float64) map[int][]transfer.PathRate {
		return map[int][]transfer.PathRate{1: {{Path: []int{0, 1}, Rate: rate}}}
	}
	if !slotOutputOK(net, topo, alloc(net.ThetaGbps), []*transfer.Transfer{tr}, 300) {
		t.Error("a full but not overloaded link was rejected")
	}
	if slotOutputOK(net, topo, alloc(net.ThetaGbps*1.01), []*transfer.Transfer{tr}, 300) {
		t.Error("an overloaded link passed")
	}
	tr.Remaining = 300 // one slot at 1 Gbit/s finishes it
	if slotOutputOK(net, topo, alloc(2), []*transfer.Transfer{tr}, 300) {
		t.Error("a rate above remaining/slot passed")
	}
	topo.Add(0, 2, 100)
	if slotOutputOK(net, topo, nil, nil, 300) {
		t.Error("a topology over the port budget passed")
	}
}

// TestSpreadMatchesDriver checks the quartile rule against values worked out
// with Python's statistics.quantiles(v, n=4).
func TestSpreadMatchesDriver(t *testing.T) {
	v := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}
	// quantiles -> [10.375, 11.75, 13.25]; median 11.75
	if got, want := spread(v), (13.25-10.375)/11.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if !math.IsNaN(spread(v[:3])) {
		t.Error("spread of three values should be unknown")
	}
}

func TestVerdict(t *testing.T) {
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m * 1.005} }
	calib := []float64{40, 40, 41, 40}
	for _, c := range []struct {
		name         string
		a, b, ca, cb []float64
		lower        bool
		want         string
	}{
		{"same", steady(100), steady(103), calib, calib, true, "unchanged"},
		{"slower", steady(100), steady(120), calib, calib, true, "worse"},
		{"faster", steady(100), steady(80), calib, calib, true, "better"},
		{"rate fell", steady(100), steady(80), calib, calib, false, "worse"},
		{"noisy", []float64{60, 100, 140, 100, 90}, steady(120), calib, calib, true, "unresolved"},
		{"host drifted", steady(100), steady(120), calib, []float64{50, 50, 51, 50}, true, "unresolved"},
		{"too few runs", []float64{100}, []float64{120}, calib, calib, true, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.ca, c.cb, c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
