package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"owan/internal/topology"
	"owan/internal/transfer"
)

// The search fingerprint pins single searches the way the temper goldens pin
// three-slot walks: one line per seed of the delta harness
// (deltaHarnessCase) and one per seed of the ladder's configurations
// (temperLadderConfig), each holding the best topology's key hash, the bits
// of the best energy, and the chain's iterations, acceptances and churn. The
// file was generated before the search lost its snapshot evaluator, so the
// test holds the move-list search, with DeltaEval off and on, to the
// trajectories the older search walked.
//
// Regenerate with UPDATE_SEARCH_FINGERPRINT=1 go test -run TestSearchFingerprint ./internal/core
// — only when a change deliberately alters search semantics.

var searchFingerprintPath = filepath.Join("testdata", "search_fingerprint.json")

// deltaHarnessCase derives seed's network, transfers and configuration for
// the 300-seed delta harness. ok is false when the seed drew no transfer.
func deltaHarnessCase(seed int64, nets []*topology.Network) (net *topology.Network, ts []*transfer.Transfer, cfg Config, ok bool) {
	rng := rand.New(rand.NewSource(7000 + seed))
	net = nets[int(seed)%len(nets)]
	ts = randTransfers(rng, len(net.Sites))
	if len(ts) == 0 {
		return nil, nil, Config{}, false
	}
	cfg = Config{
		Seed:          seed,
		MaxIterations: 60 + rng.Intn(60),
		BatchSize:     1 + rng.Intn(6),
		Workers:       []int{1, 1, 4}[rng.Intn(3)],
		NeighborMoves: 1 + rng.Intn(2),
	}
	rng.Intn(3) // the retired energy-cache size draw, kept so later seeds keep their configs
	if rng.Intn(4) == 0 {
		cfg.MaxChurn = -1 // unbounded: every candidate evaluates
	}
	cfg.Replicas = 1 + rng.Intn(3) // drawn last, so the earlier draws keep their values
	return net, ts, cfg, true
}

// fingerprint is one search's line of the file: a JSON object, with the
// 64-bit values in hex.
type fingerprint struct {
	Set      string `json:"set"`
	Seed     int64  `json:"seed"`
	Key      string `json:"key"`
	Energy   string `json:"energy"`
	Iters    int    `json:"iters"`
	Accepted int    `json:"accepted"`
	Churn    int    `json:"churn"`
}

func fingerprintOf(set string, seed int64, st *NetworkState) fingerprint {
	return fingerprint{
		Set: set, Seed: seed,
		Key:      fmt.Sprintf("%016x", topology.KeyHash([]byte(st.Topology.Key()))),
		Energy:   fmt.Sprintf("%016x", math.Float64bits(st.Stats.BestEnergy)),
		Iters:    st.Stats.Iterations,
		Accepted: st.Stats.Accepted,
		Churn:    st.Stats.Churn,
	}
}

// searchFingerprints runs every fingerprinted search with DeltaEval set to
// delta (the ladder's own DeltaEval draw is overridden) and returns its lines
// in order.
func searchFingerprints(delta bool) []fingerprint {
	var lines []fingerprint
	nets := deltaHarnessNets()
	for seed := int64(0); seed < 300; seed++ {
		net, ts, cfg, ok := deltaHarnessCase(seed, nets)
		if !ok {
			continue
		}
		cfg.DeltaEval = delta
		lines = append(lines, fingerprintOf("delta", seed, runSearch(net, ts, cfg)))
	}
	ladderNets := temperGoldenNets()
	for seed := int64(0); seed < temperGoldenSeeds; seed++ {
		net := ladderNets[int(seed)%len(ladderNets)]
		ts := randTransfers(rand.New(rand.NewSource(seed*131)), len(net.Sites))
		if len(ts) == 0 {
			continue
		}
		cfg := temperLadderConfig(seed, net)
		cfg.DeltaEval = delta
		lines = append(lines, fingerprintOf("ladder", seed, runSearch(net, ts, cfg)))
	}
	return lines
}

// TestSearchFingerprint requires the search to reproduce every committed
// fingerprint line with DeltaEval off and on.
func TestSearchFingerprint(t *testing.T) {
	if os.Getenv("UPDATE_SEARCH_FINGERPRINT") != "" {
		var b strings.Builder
		b.WriteString("[\n")
		lines := searchFingerprints(false)
		for i, l := range lines {
			raw, err := json.Marshal(l)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(raw)
			if i < len(lines)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("]\n")
		if err := os.WriteFile(searchFingerprintPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(lines), searchFingerprintPath)
		return
	}
	raw, err := os.ReadFile(searchFingerprintPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []fingerprint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", searchFingerprintPath, err)
	}
	for _, delta := range []bool{false, true} {
		got := searchFingerprints(delta)
		if len(got) != len(want) {
			t.Fatalf("DeltaEval=%v: %d fingerprint lines, file has %d", delta, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("DeltaEval=%v: search diverged from %s\n want %+v\n got  %+v", delta, searchFingerprintPath, want[i], got[i])
			}
		}
	}
}
