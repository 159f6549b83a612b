package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's direction and the bound it may worsen by.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict places the change from a to b against the metric's bound. A row is
// unresolved when either set's own spread, or the drift of the host's
// reference loop between the sets, exceeds the bound: the difference, if any,
// cannot be told from noise.
func verdict(a, b []float64, calibA, calibB []float64, lowerBetter bool, bound float64) string {
	ma, mb := median(a), median(b)
	if len(a) == 0 || len(b) == 0 || ma == 0 {
		return "unresolved"
	}
	worse := (mb - ma) / math.Abs(ma)
	if !lowerBetter {
		worse = -worse
	}
	sa, sb := spread(a), spread(b)
	drift := math.Abs(median(calibB)/median(calibA) - 1)
	switch {
	case math.IsNaN(sa) || math.IsNaN(sb) || sa > bound || sb > bound || drift > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "unchanged"
}

// compareSets prints one row per workload and end-to-end metric. It exits 1
// when any row is worse, so it can gate; unresolved rows do not fail it.
func compareSets(pathA, pathB string) int {
	b, err := os.ReadFile("BENCHMARK.json")
	var bf benchmarkFile
	if err == nil {
		err = json.Unmarshal(b, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json (run bench/run.sh from the repository root):", err)
		return 2
	}
	sa, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sb, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("# a: %s (%s, %d runs)   b: %s (%s, %d runs)\n", pathA, sa.Host.CPUModel, len(sa.Seeds), pathB, sb.Host.CPUModel, len(sb.Seeds))
	fmt.Printf("%-12s %-14s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "change", "spread a", "spread b", "bound", "verdict")
	status := 0
	for _, w := range workloads() {
		for _, m := range bf.EndToEnd {
			va, vb := sa.Workloads[w.name][m.Name], sb.Workloads[w.name][m.Name]
			v := verdict(va, vb, sa.CalibMs[w.name], sb.CalibMs[w.name], m.Better == "lower", m.Bound)
			if v == "worse" {
				status = 1
			}
			fmt.Printf("%-12s %-14s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n", w.name, m.Name,
				median(va), median(vb), 100*(median(vb)-median(va))/math.Abs(median(va)), 100*spread(va), 100*spread(vb), 100*m.Bound, v)
		}
		fmt.Printf("%-12s %-14s %12.6g %12.6g %+7.1f%%\n", w.name, "host.calib_ms", median(sa.CalibMs[w.name]), median(sb.CalibMs[w.name]),
			100*(median(sb.CalibMs[w.name])/median(sa.CalibMs[w.name])-1))
		if da, db := sa.Digest[w.name], sb.Digest[w.name]; da != "" || db != "" {
			fmt.Printf("%-12s %-14s %12s %12s\n", w.name, "digest_match", da, db)
		}
	}
	return status
}
