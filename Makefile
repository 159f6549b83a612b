GO ?= go

.PHONY: build vet test race bench bench-compare bench-json bench-smoke temper claims update routes faults ctl loadgen-smoke check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The annealing engine evaluates energies on a worker pool; run the whole
# internal tree under the race detector so any shared-state regression in
# the concurrent code is caught before it ships.
race:
	$(GO) test -race ./internal/...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# bench-compare benchmarks the hot paths at BASE (default HEAD~1, from a
# temporary worktree) and at the working tree, then prints a benchstat
# comparison (or a plain old/new/delta table when benchstat is absent).
# Non-gating: the report never fails the build.
BASE ?= HEAD~1
bench-compare:
	sh scripts/benchcompare.sh $(BASE)

# bench-json runs the hot-path benchmarks — the >64-site ISP100/ISP200
# energy and annealing benchmarks, the flat update planner (and its retained
# map-based reference), and the end-to-end ISP200 slot pipeline — and writes
# the results as a JSON map (name -> ns/op, allocs/op; schema in DESIGN.md
# §8) so the numbers can be committed and diffed across PRs.
BENCH_JSON ?= BENCH_PR10.json
bench-json:
	sh scripts/benchjson.sh 'BenchmarkAnneal|BenchmarkEnergyISP|BenchmarkProvisionTopology|BenchmarkClaimRepair|BenchmarkUpdatePlan|BenchmarkSimSlot' $(BENCH_JSON) './...'

# bench-smoke compiles and runs every benchmark exactly once — a fast CI
# guard that the benchmark harness itself keeps working. internal/core
# carries the scale benchmarks (ISP100/ISP200 energy); the root package
# carries the annealing-engine ones (AnnealISP100/AnnealISP200) and the
# ISP200 slot pipeline, the cold ISP200 route-table build and the ISP100
# route repair; internal/update carries the flat planner.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/core ./internal/update

# claims replays the PR 9 incremental-engine differentials with the test
# cache defeated: the claim-tree repair store against cold rebuilds, the
# wavelength-availability index against the from-scratch occupancy scan, and
# the alternate-tier provision-cache migration against cold provisioning.
claims:
	$(GO) test -count=1 \
		-run 'TestClaimRepairDifferential|TestClaimReuseMatchesReference|TestLambdaIndexMatchesOccupancy|TestWithoutFiberAlternateCacheMigration' \
		./internal/alloc/ ./internal/optical/ ./internal/core/

# update replays the flat update scheduler's pinning suite with the test
# cache defeated: the 300-seed randomized differential (flat engine vs the
# retained map-based reference, bit-identical rounds/op order/detours/
# timelines — including fiber-failure and forced-detour deadlock cases) and
# the randomized step-consistency property of the planner's timeline.
update:
	$(GO) test -count=1 \
		-run 'TestFlatPlannerDifferential|TestTimelineStepConsistency' \
		./internal/update/

# routes replays the route-table pinning suite with the test cache defeated:
# the arena k-shortest-path kernel against the retained allocating one
# (paths, weights and tie order, k up to 7), and the optical tables repaired
# on a fiber cut against the retained cold builder — every single cut of
# ISP40/ISP100/Internet2/InterDC, 300 seeded chains of 1-8 cuts (ISP200
# among them) and the tie-heavy fixtures.
routes:
	$(GO) test -count=1 \
		-run 'TestKShortestDifferential|TestKShortestAllocationFree|TestRouteRepairDifferential' \
		./internal/graph/ ./internal/optical/

# temper replays the committed 300-seed golden digests: the refactored
# search loop in compat mode (Replicas=1, WarmStart=false) must reproduce
# the pre-tempering annealer bit for bit, across ISP40 and a >64-site
# network, through a WithoutFiber failure event. -count=1 defeats the test
# cache so the differential actually runs.
temper:
	$(GO) test -count=1 -run 'TestTemperGoldenDifferential' ./internal/core/

# Fault-injection integration matrix: the end-to-end scenario (controller
# killed mid-slot, one client partitioned, frames corrupted) must pass
# deterministically for each seed, under the race detector. One `go test`
# per seed so a failure names the seed that broke.
FAULT_SEEDS ?= 1 2 3
faults:
	@for s in $(FAULT_SEEDS); do \
		echo "--- fault injection, seed $$s"; \
		FAULTNET_SEED=$$s $(GO) test -race -count=1 \
			-run 'TestFaultInjectionEndToEnd' ./internal/controlplane/ || exit 1; \
	done

# ctl replays the controller's slot discipline under the race detector with
# the test cache defeated: a submit issued mid-search acks at idle latency
# and joins the next slot; Tick, wire submits, status reads and fiber cuts
# run against each other and end in Close with no goroutine left; a store
# holding only the records each slot changed recovers like one rewritten in
# full every slot.
ctl:
	$(GO) test -race -count=3 \
		-run 'TestSubmitDuringSearch|TestSlotOpsConcurrent|TestRecoveryEquivalence' \
		./internal/controlplane/

# loadgen-smoke drives a fixed-seed 1k-client fleet through the admission
# pipeline over the in-memory transport, beside a scheduler ticking every
# 100 ms (20 submits per client, so the load spans several slots), and
# audits the store token by token: -check exits nonzero (dumping server
# counters, fault stats, and the latency summary) on any lost or duplicated
# submit or a p99 above the bound. Small enough for CI; `owan-loadgen
# -clients 100000` is the full-scale run behind results/loadgen.dat.
loadgen-smoke:
	$(GO) run ./cmd/owan-loadgen -clients 1000 -submits 20 -seed 1 -tick 100ms -check -max-p99 20s -quiet

# check is the tier-1 gate: clean build, vet, full tests, race-detected
# internal tests (including the delta differential harnesses), the
# tempering golden differential, the claim, flat-planner and route-table
# differentials, a one-shot benchmark smoke, the seeded fault-injection
# matrix, the controller's slot-discipline tests, and the admission
# load-generator smoke.
check: build vet test race temper claims update routes bench-smoke faults ctl loadgen-smoke
