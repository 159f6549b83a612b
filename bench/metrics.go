package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric and its unit. These lists are the benchmark's
// vocabulary; bench_test.go pins them to BENCHMARK.json.
type metricDef struct{ Name, Unit string }

// endToEnd are measured with tracing off, on every workload. What "slot" and
// "wait" mean per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slot_p50_ms", "ms"},
	{"slots_per_s", "1/s"},
	{"wait_p50_ms", "ms"},
	{"wait_p95_ms", "ms"},
	{"goodput_gbps", "Gbit/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer come from the traced run. A metric whose layer a workload does
// not drive (controlplane.* on a simulator workload, the replay probes on the
// live controller) reads 0 there.
var perLayer = []metricDef{
	{"optical.route_tables_s", "s"},
	{"optical.route_tables_alloc_mb", "MB"},
	{"optical.route_tables_mallocs", "count"},
	{"optical.new_state_warm_ms", "ms"},
	{"optical.provision_effective_us", "us"},
	{"optical.provision_topology_us", "us"},
	{"optical.snapshot_build_us", "us"},
	{"optical.provision_delta_us", "us"},
	{"alloc.throughput_us", "us"},
	{"alloc.greedy_us", "us"},
	{"alloc.demands", "count"},
	{"core.search_ms", "ms"},
	{"core.energy_us", "us"},
	{"core.iterations", "count"},
	{"core.evals", "count"},
	{"core.accept_ratio", "ratio"},
	{"core.delta_hit_ratio", "ratio"},
	{"core.provision_cache_hit_ratio", "ratio"},
	{"core.energy_cache_hit_ratio", "ratio"},
	{"core.search_self_ms", "ms"},
	{"core.new_ms", "ms"},
	{"core.without_fiber_ms", "ms"},
	{"update.plan_us", "us"},
	{"update.ops", "count"},
	{"update.rounds", "count"},
	{"update.deadlocks", "count"},
	{"sim.other_ms", "ms"},
	{"sim.slot_p95_ms", "ms"},
	{"sim.slot_max_ms", "ms"},
	{"sim.active_transfers", "count"},
	{"sim.churn", "count"},
	{"transfer.order_us", "us"},
	{"cut_response_p50_ms", "ms"},
	{"admit_p50_ms", "ms"},
	{"admit_p95_ms", "ms"},
	{"admit_per_s", "1/s"},
	{"controlplane.tick_p95_ms", "ms"},
	{"controlplane.submit_idle_us", "us"},
	{"controlplane.submit_blocked_frac", "ratio"},
	{"controlplane.admit_p99_ms", "ms"},
	{"controlplane.batch_factor", "ratio"},
	{"controlplane.overloads", "count"},
	{"controlplane.rate_pushes", "count"},
	{"controlplane.push_failures", "count"},
	{"controlplane.fail_fiber_ms", "ms"},
	{"controlplane.gen_late_ms", "ms"},
	{"store.putbatch_us", "us"},
	{"store.log_entries_per_slot", "count"},
	{"graph.ksp_us", "us"},
	{"topology.build_ms", "ms"},
	{"workload.generate_ms", "ms"},
	{"host.calib_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"failed_frac", "ratio"},
}

func unitOf(name string) (string, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit, true
			}
		}
	}
	return "", false
}

// result is what one run of one workload produced.
type result struct {
	outDir    string
	attempted int
	failed    int
	metrics   map[string]float64
	unset     []string // per-layer metrics this workload does not drive
	digest    *digest
	errs      []error
}

// set records a metric. Setting an unknown name or the same name twice is a
// bug in the benchmark and fails the run.
func (r *result) set(name string, v float64) {
	if _, ok := unitOf(name); !ok {
		r.errs = append(r.errs, fmt.Errorf("metric %q is not declared", name))
		return
	}
	if _, dup := r.metrics[name]; dup {
		r.errs = append(r.errs, fmt.Errorf("metric %q set twice", name))
		return
	}
	r.metrics[name] = v
}

// complete checks that every metric of the list was set; with zeroFill the
// missing ones are recorded as not driven by this workload and read 0.
func (r *result) complete(list []metricDef, zeroFill bool) {
	for _, d := range list {
		if _, ok := r.metrics[d.Name]; ok {
			continue
		}
		if !zeroFill {
			r.errs = append(r.errs, fmt.Errorf("metric %q was not measured", d.Name))
			continue
		}
		r.metrics[d.Name] = 0
		r.unset = append(r.unset, d.Name)
	}
	sort.Strings(r.unset)
}
