package core

import (
	"fmt"
	"math/rand"
	"testing"

	"owan/internal/topology"
)

// disablePersistence flips a controller into the no-memo mode used as the
// differential reference: a throwaway evaluator per ComputeNetworkState call
// and no topology memo. Everything else — RNG, config, optical state — is
// untouched, so the two modes share a trajectory exactly when the memo and
// the persistent evaluator are inert.
func disablePersistence(o *Owan) {
	o.disablePersist = true
	o.memo = nil
}

// persistNets mixes the small comfortable networks of the delta harness with
// a >64-site ISP so the cross-slot contract is also pinned on the multi-word
// mask paths.
func persistNets() []*topology.Network {
	return []*topology.Network{
		topology.Internet2(6),
		topology.Internet2(10),
		topology.ISP(12, 6, 1),
		topology.ISP(18, 8, 2),
		topology.ISP(70, 8, 1),
		topology.Square(),
	}
}

// TestPersistentEvaluatorMatchesFresh is the cross-slot differential for the
// persistent evaluator and the topology memo: across 300 randomized seeds, a
// controller that keeps its evaluator (worker pool, delta snapshot) and memo
// across slots must produce bit-identical per-slot results to one that
// rebuilds the evaluator each slot and has no memo — including across a
// WithoutFiber failure event, after which both continue on fresh controllers
// for the smaller network. The persistent side must also actually be served
// links and energies by its memo somewhere in the run, so the contract
// cannot pass vacuously.
func TestPersistentEvaluatorMatchesFresh(t *testing.T) {
	nets := persistNets()
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	totalProvHits, totalEnergyHits, totalWarmSlots := 0, 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(11000 + seed))
		net := nets[int(seed)%len(nets)]
		sites := len(net.Sites)
		iters := 40 + rng.Intn(40)
		if sites > 64 {
			iters = 20 // big nets pay O(n^2) per energy; keep the run bounded
		}
		cfg := Config{
			Net:           net,
			Seed:          seed,
			MaxIterations: iters,
			BatchSize:     1 + rng.Intn(4),
			Workers:       []int{1, 1, 4}[rng.Intn(3)],
			DeltaEval:     rng.Intn(2) == 0,
		}
		rng.Intn(3) // the retired energy-cache size draw, kept so later seeds keep their configs

		pers := New(cfg)
		fresh := New(cfg)
		disablePersistence(fresh)

		curP := topology.InitialTopology(net)
		curF := curP.Clone()
		for slot := 0; slot < 4; slot++ {
			if slot == 2 && len(net.Fibers) > 1 {
				// Fail a fiber mid-run on both sides. WithoutFiber returns a
				// fresh controller; the persistent one must keep matching even
				// though it migrates still-valid memo links across the failure
				// (the fresh side gets no memo at all), and the old pool is
				// closed.
				fid := net.Fibers[len(net.Fibers)/2].ID
				oldP, oldF := pers, fresh
				pers = pers.WithoutFiber(fid)
				fresh = fresh.WithoutFiber(fid)
				oldP.Close()
				oldF.Close()
				disablePersistence(fresh)
			}
			slotRng := rand.New(rand.NewSource(seed*31 + int64(slot)))
			ts := randTransfers(slotRng, sites)
			if len(ts) == 0 {
				continue
			}
			ref := fresh.ComputeNetworkState(curF, ts, slot, 300)
			got := pers.ComputeNetworkState(curP, ts, slot, 300)
			name := fmt.Sprintf("seed %d slot %d net %s w%d b%d delta=%v",
				seed, slot, net.Name, cfg.Workers, cfg.BatchSize, cfg.DeltaEval)
			sameSearch(t, name, ref, got)
			if ref.Stats.ProvisionHits != 0 || ref.Stats.ProvisionMisses != 0 || ref.Stats.CacheHits != 0 {
				t.Fatalf("%s: memo counters nonzero without a memo: %+v", name, ref.Stats)
			}
			totalProvHits += got.Stats.ProvisionHits
			totalEnergyHits += got.Stats.CacheHits
			if slot > 0 && got.Stats.SnapshotBuilds < ref.Stats.SnapshotBuilds {
				totalWarmSlots++ // retained snapshot saved a rebuild
			}
			curP, curF = got.Topology, ref.Topology
		}
		pers.Close()
		fresh.Close()
	}
	if totalProvHits == 0 {
		t.Fatal("no memo links served across the run — the cross-slot half never fired")
	}
	if totalEnergyHits == 0 {
		t.Fatal("no memo energies served across the run — the per-search half never fired")
	}
	t.Logf("links hits=%d, energy hits=%d, slots with a saved snapshot build=%d",
		totalProvHits, totalEnergyHits, totalWarmSlots)
}

// TestPersistentSnapshotReuse pins the warm-start fast path directly: when a
// slot starts from exactly the topology whose snapshot the evaluator retained,
// the delta search must not rebuild it, and the slot's first energy must
// find its links in the memo (seeded by the previous slot's final plan).
func TestPersistentSnapshotReuse(t *testing.T) {
	net, ts := searchFixture()
	o := New(Config{Net: net, Seed: 3, MaxIterations: 120, BatchSize: 2, DeltaEval: true})
	defer o.Close()
	cur := topology.InitialTopology(net)
	first := o.ComputeNetworkState(cur, ts, 0, 300)
	if first.Stats.SnapshotBuilds == 0 {
		t.Fatalf("cold slot built no snapshot: %+v", first.Stats)
	}
	// Same demands, warm start from the slot's own output: the first base is
	// the retained snapshot whenever the search ended on its last accepted
	// state; regardless, the initial energy must hit the seeded memo.
	second := o.ComputeNetworkState(first.Topology, ts, 1, 300)
	if second.Stats.ProvisionHits == 0 {
		t.Fatalf("warm slot had no provision hits: %+v", second.Stats)
	}
	if second.Stats.Iterations <= 0 {
		t.Fatalf("degenerate warm slot: %+v", second.Stats)
	}
}
