// Command bench is the repository's benchmark: four named workloads over the
// shipped controller, each measured end to end with tracing off and layer by
// layer in a separate traced run. Every layer is timed from outside, through
// its exported functions; nothing under internal/ or cmd/ knows the benchmark
// exists. README.md has the workloads, the metrics and how they interact.
//
//	bash bench/run.sh                                   all workloads, both runs, a table
//	bash bench/run.sh -workload slot-isp40 -trace 1     one traced run
//	bash bench/run.sh -runs 5 -set a.json               a set of runs for -compare
//	bash bench/run.sh -compare a.json b.json
//
// The package is a module of its own (go.mod here, replace owan => ../);
// run.sh builds it inside the checkout and runs it from the checkout's root.
// The benchmark driver runs `bash bench/run.sh --workload W --seed N
// --seconds S --trace T`.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

const defaultSeed = 1

//go:embed expected.json
var expectedJSON []byte

type workload struct {
	name string
	why  string
	run  func(seed int64, seconds float64, traced bool, r *result) error
}

func workloads() []workload {
	var out []workload
	for _, s := range simSpecs {
		s := s
		out = append(out, workload{s.name, s.why, func(seed int64, sec float64, tr bool, r *result) error {
			return runSim(s, seed, sec, tr, r)
		}})
	}
	for _, s := range ctlSpecs {
		s := s
		out = append(out, workload{s.name, s.why, func(seed int64, sec float64, tr bool, r *result) error {
			return runCtl(s, seed, sec, tr, r)
		}})
	}
	return out
}

// runRecord is the file a run leaves under the output directory: everything
// the final JSON line has, plus the host and what -compare needs.
type runRecord struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Host        hostInfo           `json:"host"`
	CalibMs     [2]float64         `json:"calib_ms"` // before and after the workload
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
	NotDriven   []string           `json:"not_driven,omitempty"`
	Digest      *digest            `json:"digest,omitempty"`
	DigestMatch string             `json:"digest_match"`
}

// measure runs one workload once and fills in the metrics every workload
// shares.
func measure(w workload, seed int64, seconds float64, traced bool, outDir string) (*runRecord, *result) {
	rec := &runRecord{Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced, Host: readHost(), DigestMatch: "n/a"}
	r := &result{outDir: outDir, metrics: map[string]float64{}}
	rec.CalibMs[0] = ms(calibrate())
	if err := w.run(seed, seconds, traced, r); err != nil {
		r.errs = append(r.errs, err)
	}
	rec.CalibMs[1] = ms(calibrate())
	r.set("peak_rss_mb", peakRSSMB())
	r.complete(endToEnd, false)
	if traced {
		r.set("host.calib_ms", (rec.CalibMs[0]+rec.CalibMs[1])/2)
		r.set("failed_frac", ratio(float64(r.failed), float64(r.attempted)))
		r.complete(perLayer, true)
	}
	rec.Attempted, rec.Failed, rec.Metrics, rec.NotDriven, rec.Digest = r.attempted, r.failed, r.metrics, r.unset, r.digest
	if r.digest != nil && seed == defaultSeed {
		var exp map[string]digest
		if err := json.Unmarshal(expectedJSON, &exp); err != nil {
			r.errs = append(r.errs, fmt.Errorf("expected.json: %w", err))
		} else if e, ok := exp[w.name]; ok {
			rec.DigestMatch = "mismatch"
			if r.digest.matches(e) {
				rec.DigestMatch = "match"
			}
		}
	}
	return rec, r
}

// finalLine is the contract with the benchmark driver: the last line of
// standard output, with the end-to-end metrics of an untraced run or the
// per-layer metrics of a traced one.
func finalLine(rec *runRecord) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := endToEnd
	if rec.Trace {
		list = perLayer
	}
	m := map[string]mv{}
	for _, d := range list {
		m[d.Name] = mv{rec.Metrics[d.Name], d.Unit}
	}
	b, _ := json.Marshal(map[string]any{
		"correct":   rec.Failed == 0,
		"attempted": rec.Attempted,
		"failed":    rec.Failed,
		"metrics":   m,
	})
	return string(b)
}

func printRecord(rec *runRecord) {
	h := rec.Host
	fmt.Printf("# %s seed=%d seconds=%g trace=%v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Printf("# host: %s, %s, nproc=%d GOMAXPROCS=%d, calib %.2f ms before / %.2f ms after\n",
		h.GoVersion, h.CPUModel, h.NProc, h.GOMAXPROCS, rec.CalibMs[0], rec.CalibMs[1])
	fmt.Printf("# transport: %s\n", h.Transport)
	lists := [][]metricDef{endToEnd}
	if rec.Trace {
		lists = append(lists, perLayer)
	}
	notDriven := map[string]bool{}
	for _, n := range rec.NotDriven {
		notDriven[n] = true
	}
	for _, list := range lists {
		for _, d := range list {
			if notDriven[d.Name] {
				fmt.Printf("%-36s %14s %-7s (layer not driven by this workload)\n", d.Name, "0", d.Unit)
				continue
			}
			fmt.Printf("%-36s %14.6g %s\n", d.Name, rec.Metrics[d.Name], d.Unit)
		}
	}
	fmt.Printf("%-36s %14d of %d\n", "failed", rec.Failed, rec.Attempted)
	if rec.Digest != nil {
		d := rec.Digest
		fmt.Printf("%-36s %14s (goodput %.9g Gbit/s, %d completed, churn %d, %d iterations)\n",
			"digest_match", rec.DigestMatch, d.GoodputGbps, d.Completed, d.Churn, d.Iterations)
	}
}

// recordPath is where a run leaves its runRecord.
func recordPath(outDir, name string, traced bool) string {
	trace := 0
	if traced {
		trace = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("result-%s-trace%d.json", name, trace))
}

func runOne(name string, seed int64, seconds float64, traced bool, outDir string) int {
	for _, w := range workloads() {
		if w.name != name {
			continue
		}
		rec, r := measure(w, seed, seconds, traced, outDir)
		if len(r.errs) > 0 {
			for _, err := range r.errs {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
			return 2
		}
		if err := writeJSON(recordPath(outDir, name, traced), rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		printRecord(rec)
		fmt.Println(finalLine(rec))
		if rec.Failed > 0 {
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
	return 2
}

// runSet is the set of runs -compare takes: per workload and metric, one
// value per run.
type runSet struct {
	Host      hostInfo                        `json:"host"`
	Seconds   float64                         `json:"seconds"`
	Seeds     []int64                         `json:"seeds"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
	CalibMs   map[string][]float64            `json:"calib_ms"`
	Digest    map[string]string               `json:"digest_match"`
}

// runAll runs every workload in a process of its own — so that peak memory
// and the optical route-table cache are each workload's own — `runs` times
// untraced (seeds seed, seed+1, ...) and once traced, prints every metric and
// writes the set.
func runAll(seed int64, seconds float64, runs int, outDir, setPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	set := runSet{Host: readHost(), Seconds: seconds, Workloads: map[string]map[string][]float64{},
		CalibMs: map[string][]float64{}, Digest: map[string]string{}}
	for i := 0; i < runs; i++ {
		set.Seeds = append(set.Seeds, seed+int64(i))
	}
	status := 0
	child := func(name string, seed int64, traced bool) (*runRecord, bool) {
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", trace, "-out", outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %s: %v\n", name, seed, trace, err)
			status = 1
			if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 1 {
				return nil, false
			}
		}
		b, err := os.ReadFile(recordPath(outDir, name, traced))
		var rec runRecord
		if err == nil {
			err = json.Unmarshal(b, &rec)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			status = 1
			return nil, false
		}
		return &rec, true
	}
	for _, w := range workloads() {
		vals := map[string][]float64{}
		for _, s := range set.Seeds {
			rec, ok := child(w.name, s, false)
			if !ok {
				continue
			}
			for _, d := range endToEnd {
				vals[d.Name] = append(vals[d.Name], rec.Metrics[d.Name])
			}
			set.CalibMs[w.name] = append(set.CalibMs[w.name], rec.CalibMs[0], rec.CalibMs[1])
			if s == defaultSeed {
				set.Digest[w.name] = rec.DigestMatch
			}
		}
		if rec, ok := child(w.name, seed, true); ok {
			for _, d := range perLayer {
				vals[d.Name] = append(vals[d.Name], rec.Metrics[d.Name])
			}
			// The issue's definition of tracing overhead, from the two runs'
			// slot rates; the traced run alone can only estimate it.
			if u := vals["slots_per_s"]; len(u) > 0 && u[0] > 0 {
				fmt.Printf("%-36s %14.6g ratio (1 - traced/untraced slots_per_s, same seed)\n",
					"trace.overhead_frac(two runs)", 1-rec.Metrics["slots_per_s"]/u[0])
			}
		}
		set.Workloads[w.name] = vals
		fmt.Println()
	}
	if err := writeJSON(setPath, set); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("# set of %d run(s) per workload written to %s\n", runs, setPath)
	return status
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Int64("seed", defaultSeed, "workload seed; the default seed is also checked against expected.json")
		seconds = flag.Float64("seconds", 20, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 records spans, runs the layer probes and reports the per-layer metrics")
		runs    = flag.Int("runs", 1, "with -workload all: untraced runs per workload, on consecutive seeds")
		outDir  = flag.String("out", "bench/out", "directory for result, trace and set files")
		setPath = flag.String("set", "", "with -workload all: where to write the set (default <out>/set.json)")
		compare = flag.Bool("compare", false, "compare two sets: -compare a.json b.json")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareSets(flag.Arg(0), flag.Arg(1)))
	case *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0:
		flag.Usage()
		os.Exit(2)
	case *name == "all":
		if *setPath == "" {
			*setPath = filepath.Join(*outDir, "set.json")
		}
		os.Exit(runAll(*seed, *seconds, *runs, *outDir, *setPath))
	default:
		os.Exit(runOne(*name, *seed, *seconds, *trace == 1, *outDir))
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}
