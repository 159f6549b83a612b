package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"owan/internal/topology"
)

// This file is the PR 6 differential battery for warm-start + replica
// exchange. Its anchor is a *golden* harness: testdata/temper_golden.json was
// generated from the pre-tempering annealer (the code as of PR 5), so
// asserting the digests here proves that `Replicas=1, WarmStart=false` —
// today's default configuration — still walks the exact pre-PR trajectories,
// bit for bit, through every refactor tempering required (RNG plumbing,
// temperature seeding, one loop for every replica count). A
// self-referential differential (new code vs new code) could not catch a
// refactor that changed everything consistently; the committed digests can.
//
// A second golden, testdata/temper_ladder_golden.json, pins the ladder
// (Replicas ∈ {2, 4}, warm starts on for some seeds) through the same walk,
// so a later refactor of the annealing loop is held to R > 1 as well.
//
// Regenerate with UPDATE_TEMPER_GOLDEN=1 go test -run TemperLadderGolden ./internal/core
// (or -run TemperGoldenDifferential for the compat digests) — but only when
// a change deliberately alters search semantics, never to make a red run
// green.

const temperGoldenSeeds = 300

var (
	temperGoldenPath       = filepath.Join("testdata", "temper_golden.json")
	temperLadderGoldenPath = filepath.Join("testdata", "temper_ladder_golden.json")
)

// temperGoldenNets returns the two differential networks: the paper's ISP40
// benchmark topology and a >64-site ISP, so the multi-word mask paths are
// under the contract too. Built once; the walks only read them (WithoutFiber
// clones the network before dropping a fiber).
var temperGoldenNets = sync.OnceValue(func() []*topology.Network {
	return []*topology.Network{
		topology.ISP(40, 10, 1),
		topology.ISP(70, 8, 1),
	}
})

// temperGoldenConfig derives the canonical per-seed configuration. Knobs are
// drawn from a seed-local RNG so the 300 seeds sweep worker counts, batch
// sizes and delta evaluation.
func temperGoldenConfig(seed int64, net *topology.Network) Config {
	rng := rand.New(rand.NewSource(23000 + seed))
	cfg := Config{
		Net:           net,
		Seed:          seed,
		MaxIterations: 24 + rng.Intn(24),
		BatchSize:     1 + rng.Intn(4),
		Workers:       []int{1, 1, 4}[rng.Intn(3)],
		DeltaEval:     rng.Intn(2) == 0,
		// Explicit compatibility mode: these are the zero values, so the
		// resolved config is identical to a pre-tempering Config literal.
		Replicas:  1,
		WarmStart: false,
	}
	rng.Intn(3) // the retired energy-cache size draw, kept so the digests stay put
	return cfg
}

// temperLadderConfig is temperGoldenConfig for the ladder: Replicas ∈ {2, 4},
// warm starts on for about half the seeds, and a fast cooling rate on about
// a third, so the walk also reaches ε and pins where the final round stops.
// DeltaEval is drawn too, although it applies only at R = 1 today.
func temperLadderConfig(seed int64, net *topology.Network) Config {
	rng := rand.New(rand.NewSource(29000 + seed))
	cfg := Config{
		Net:           net,
		Seed:          seed,
		MaxIterations: 24 + rng.Intn(24),
		BatchSize:     1 + rng.Intn(4),
		Workers:       []int{1, 1, 4}[rng.Intn(3)],
		DeltaEval:     rng.Intn(2) == 0,
		Replicas:      []int{2, 4}[rng.Intn(2)],
		WarmStart:     rng.Intn(2) == 0,
	}
	rng.Intn(3) // the retired energy-cache size draw: Alpha's draw must follow it
	if rng.Intn(3) == 0 {
		cfg.Alpha = 0.8
	}
	return cfg
}

// temperGoldenWalk runs the canonical 3-slot sequence for one seed under
// config — warm slot-to-slot starts on one persistent controller, with a
// WithoutFiber failure event before the middle slot — and folds every slot's
// full result (canonical topology key, energy bits, chain stats) into one
// digest. It also returns the mean BestEnergy over the slots it searched.
func temperGoldenWalk(seed int64, config func(int64, *topology.Network) Config) (uint64, float64) {
	nets := temperGoldenNets()
	net := nets[int(seed)%len(nets)]
	cfg := config(seed, net)
	o := New(cfg)
	defer func() { o.Close() }()

	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	cur := topology.InitialTopology(net)
	best, searched := 0.0, 0
	for slot := 0; slot < 3; slot++ {
		if slot == 1 {
			// Fail a fiber mid-sequence: the annealer continues on a fresh
			// controller for the degraded network, carrying the topology.
			fid := net.Fibers[len(net.Fibers)/2].ID
			old := o
			o = o.WithoutFiber(fid)
			old.Close()
		}
		ts := randTransfers(rand.New(rand.NewSource(seed*131+int64(slot))), len(net.Sites))
		if len(ts) == 0 {
			continue
		}
		st := o.ComputeNetworkState(cur, ts, slot, 300)
		h.Write([]byte(st.Topology.Key()))
		h.Write([]byte(st.Effective.Key()))
		word(math.Float64bits(st.Stats.BestEnergy))
		word(math.Float64bits(st.Stats.InitialEnergy))
		word(uint64(st.Stats.Iterations))
		word(uint64(st.Stats.Accepted))
		word(uint64(st.Stats.Churn))
		cur = st.Topology
		best += st.Stats.BestEnergy
		searched++
	}
	return h.Sum64(), best / math.Max(float64(searched), 1)
}

func readTemperGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden digests missing (generate with UPDATE_TEMPER_GOLDEN=1): %v", err)
	}
	var m map[string]string
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return m
}

// checkTemperGolden replays temperGoldenWalk under config for every seed
// and compares the digests with the committed file at path, or rewrites the
// file under UPDATE_TEMPER_GOLDEN. It logs the mean BestEnergy of the walks.
func checkTemperGolden(t *testing.T, path string, config func(int64, *topology.Network) Config) {
	seeds := int64(temperGoldenSeeds)
	if testing.Short() {
		seeds = 60
	}
	update := os.Getenv("UPDATE_TEMPER_GOLDEN") != ""
	if update {
		seeds = temperGoldenSeeds
	}
	var golden map[string]string
	if !update {
		golden = readTemperGolden(t, path)
	}
	out := make(map[string]string, seeds)
	bestSum := 0.0
	for seed := int64(0); seed < seeds; seed++ {
		d, best := temperGoldenWalk(seed, config)
		got := fmt.Sprintf("%016x", d)
		bestSum += best
		out[fmt.Sprint(seed)] = got
		if update {
			continue
		}
		want, ok := golden[fmt.Sprint(seed)]
		if !ok {
			t.Fatalf("seed %d missing from %s", seed, path)
		}
		if got != want {
			t.Fatalf("seed %d: trajectory diverged from %s: digest %s != golden %s", seed, path, got, want)
		}
	}
	t.Logf("mean BestEnergy over %d walks: %.6f", seeds, bestSum/float64(seeds))
	if !update {
		return
	}
	raw, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d golden digests to %s", len(out), path)
}

// TestTemperGoldenDifferential is the 300-seed differential harness: the
// compatibility configuration must reproduce the committed pre-PR digests —
// same topologies, same energies, same chain stats — across ISP40 and a
// >64-site network, including the WithoutFiber event mid-sequence.
func TestTemperGoldenDifferential(t *testing.T) {
	checkTemperGolden(t, temperGoldenPath, temperGoldenConfig)
}

// TestTemperLadderGoldenDifferential holds the ladder (Replicas ∈ {2, 4})
// to its committed digests through the same walk.
func TestTemperLadderGoldenDifferential(t *testing.T) {
	checkTemperGolden(t, temperLadderGoldenPath, temperLadderConfig)
}
