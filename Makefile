GO ?= go
GOFMT ?= gofmt

.PHONY: build vet test race bench bench-smoke bench-module temper claims update routes fuzz faults ctl loadgen-smoke check

build:
	$(GO) build ./...

# vet runs go vet and fails if gofmt would reformat any file, listing them.
vet:
	$(GO) vet ./...
	@unformatted=$$($(GOFMT) -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; \
	fi

# test is tier-1. The -timeout makes a test that waits on the wall clock (a
# search bounded by seconds rather than by its schedule) fail loudly instead
# of stretching the suite. The 300-seed differential suites that temper,
# claims, routes and update replay with the cache defeated stay inside
# go test ./... too; they are most of tier-1's remaining time (internal/core
# about 9 s and internal/optical about 25 s of a 40 s run on two cores).
test:
	$(GO) test -timeout 5m ./...

# The annealing engine evaluates energies on a worker pool; run the whole
# internal tree under the race detector so any shared-state regression in
# the concurrent code is caught before it ships.
race:
	$(GO) test -race ./internal/...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# bench-smoke compiles and runs every benchmark exactly once — a fast CI
# guard that the benchmark harness itself keeps working. internal/core
# carries the scale benchmarks (ISP100/ISP200 energy); the root package
# carries the annealing-engine ones (AnnealISP100/AnnealISP200), the
# ISP40/100/200 controller set-up and cold route-table builds and the ISP100
# route repair; internal/update carries the flat planner. The end-to-end
# slot pipeline is measured by bench/run.sh, not here.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/core ./internal/update

# bench-module vets and tests the benchmark (bench/), a module of its own
# that go build ./... and go test ./... at the root never compile, though it
# builds against internal/core, internal/controlplane and the simulator.
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench -count=1 .

# claims replays the incremental-engine differentials with the test cache
# defeated: the allocator's engines against the map-based reference
# allocator — small graphs and every word-boundary size (2-256 sites), one-,
# two- and three/four-word rows, row widths growing and shrinking on one
# allocator, and claim-tree reuse with its fast-path, repair, extension and
# cold-build paths each exercised — the
# wavelength-availability index against the from-scratch occupancy scan, the
# LinkSet's sorted view, view-merge Diff, view Equal and cached circuit total
# against a scratch sort and the map walks they replaced, the memo's compact
# links half (what provisioning lost) round-tripped against the effective
# links it encodes, the alternate-tier migration of the topology memo's
# effective links against cold provisioning, the 300-seed search with
# the memo and persistent evaluator against the no-memo reference, slot by
# slot through a fiber cut, the move generator against the swapOnce
# reference draw for draw, and the search, with candidates materialized
# eagerly and lazily, against its committed fingerprint.
claims:
	$(GO) test -count=1 \
		-run 'TestAllocatorMatchesReferenceGreedy|TestAllocatorMatchesReferenceSequential|TestAllocatorWideMatchesReference|TestAllocatorQuadMatchesReference|TestAllocatorReuseAcrossTopologySizes|TestClaimRepairDifferential|TestClaimReuseMatchesReference|TestLambdaIndexMatchesOccupancy|TestViewMatchesScratchSort|TestMemoLinksRoundTrip|TestWithoutFiberAlternateCacheMigration|TestPersistentEvaluatorMatchesFresh|TestNeighborMovesMatchesComputeNeighbor|TestSearchFingerprint' \
		./internal/alloc/ ./internal/optical/ ./internal/topology/ ./internal/core/

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
# the topology builders pinned by fingerprint (268 networks) and held to the
# retained cubic spanning tree and regenerator placement (2-300 sites, a sweep
# of reaches and pool sizes); the word-parallel reach search against a queue
# BFS; the arena k-shortest-path kernel against the retained allocating one
# (paths, weights and tie order, k up to 7), unbounded and weight-bounded
# (ties at the bound, tie flags sound under edge deletion), and the tree arcs
# against the shortest path; the optical tables repaired on a fiber cut
# against the retained cold builder — every single cut of
# ISP40/ISP100/Internet2/InterDC, 300 seeded chains of 1-8 cuts (ISP200 among
# them), the tie-heavy fixtures, and a sweep of optical reaches from 300 km to
# unbounded, with the regenerator reachability held to the retained byte-scan
# BFS, nothing stored for a pair past reach, and the shortest fiber path of
# every pair, stored or built on demand, equal to the reference's; the tables'
# lifetime (freed with their network); one slice per pair from FiberPathIDs,
# for concurrent callers too; and the simulator's update planner adopting the
# scheduler's repaired network, so a cut is repaired once.
routes:
	$(GO) test -count=1 \
		-run 'TestBuilderFingerprints|TestPrimTreeDifferential|TestPlaceRegeneratorsDifferential|TestClosureMatchesBFS|TestKShortestDifferential|TestKShortestBoundedDifferential|TestKShortestAllocationFree|TestTreeArcMatchesShortestPath|TestRouteRepairDifferential|TestRouteTablesReachSweep|TestRouteTablesDieWithNetwork|TestFiberPathIDsStable|TestPlannerSharesSchedulerCut|TestStateWithoutFiber' \
		./internal/topology/ ./internal/bitset/ ./internal/graph/ ./internal/optical/ ./internal/sim/

# fuzz is a 10-second smoke of each decoder and of the controller's message
# dispatch, one go test per target (go test fuzzes one target per run).
# topology.DecodeKey: whatever it accepts must re-encode to exactly its input,
# with strictly sorted in-range links. controlplane.ReadMsg: no frame may panic
# it, and re-framing what it accepts is a fixed point. The controller's
# transfer record: no bytes may panic its decoders, and decoding,
# re-marshalling and decoding again is a fixed point, LastServed included. The
# controller's handshake and dispatch loop: well-framed messages with any JSON
# body may not panic it, each draws at most one reply for its Seq or closes the
# connection, and a fresh connection still gets a status reply. The committed
# corpora (testdata/fuzz in each package) replay in plain go test.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeKey -fuzztime 10s ./internal/topology/
	$(GO) test -run '^$$' -fuzz FuzzReadMsg -fuzztime 10s ./internal/controlplane/
	$(GO) test -run '^$$' -fuzz FuzzDecodeTransferRecord -fuzztime 10s ./internal/controlplane/
	$(GO) test -run '^$$' -fuzz FuzzDispatch -fuzztime 10s ./internal/controlplane/

# temper replays the committed 300-seed golden digests: the annealing loop
# in compat mode (Replicas=1, WarmStart=false) must reproduce the
# pre-tempering annealer bit for bit, and on the ladder (Replicas 2 or 4,
# warm starts on for some seeds) its own committed digests, across ISP40 and
# a >64-site network, through a WithoutFiber failure event. -count=1 defeats
# the test cache so the differentials actually run.
temper:
	$(GO) test -count=1 -run 'TestTemperGoldenDifferential|TestTemperLadderGoldenDifferential' ./internal/core/

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
# full every slot, and a successor recovers the fiber cuts made before it;
# a successor resumes the committed topology, its update planner's starting
# state and every live transfer's starvation clock; and the controller runs
# the simulator's slot — demand, topology, rates, progress, update plans,
# completions — slot for slot through fiber cuts and idle slots.
ctl:
	$(GO) test -race -count=3 \
		-run 'TestSubmitDuringSearch|TestSlotOpsConcurrent|TestRecoveryEquivalence|TestSuccessorResumesSlotState|TestControllerMatchesSim' \
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
# internal tests (including the 300-seed search differentials), the
# tempering golden differential, the claim, flat-planner and route-table
# differentials, the decoder and dispatch fuzz smokes, a one-shot benchmark
# smoke, the benchmark module's vet and tests, the seeded fault-injection
# matrix, the controller's slot-discipline tests, and the admission
# load-generator smoke.
check: build vet test race temper claims update routes fuzz bench-smoke bench-module faults ctl loadgen-smoke
