package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"owan/internal/optical"
	"owan/internal/topology"
)

// migrationNet builds an ISP-style network tuned for the memo's links
// migration scenario: optical reach is raised so the topology walk provisions
// direct-only (the migratable class), and one fiber is duplicated in
// parallel. The duplicate never carries a primary route — shortest-path
// relaxation is strictly-improving, so the earlier-inserted original wins
// every tie — which makes failing it the canonical "fiber off the primary
// routing tree" event that migration is for.
func migrationNet(sites int) (*topology.Network, int) {
	net := topology.ISP(sites, 8, 1)
	net.ReachKm *= 10
	dup := net.Fibers[0]
	maxID := 0
	for _, f := range net.Fibers {
		if f.ID > maxID {
			maxID = f.ID
		}
	}
	dup.ID = maxID + 1
	net.Fibers = append(net.Fibers, dup)
	return net, dup.ID
}

// TestWithoutFiberCacheMigration pins the soundness and the non-vacuity of
// the memo's links migration across a fiber failure. Soundness: every
// entry WithoutFiber carries over must hold exactly the effective links that
// provisioning its topology from scratch on the REDUCED network produces.
// Non-vacuity, both ways: failing the redundant parallel fiber (no primary
// route touches it) must migrate entries, and failing a fiber that carries
// primary routes must drop the entries routed over it — so the validity
// predicate is neither rejecting nor accepting blindly.
func TestWithoutFiberCacheMigration(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 3
	}
	migratedTotal, droppedTotal := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		sites := []int{12, 18, 70}[int(seed)%3] // 70 exercises the multi-word mask tables
		net, dupID := migrationNet(sites)
		o := New(Config{Net: net, Seed: 500 + seed})
		rng := rand.New(rand.NewSource(900 + seed))

		// Populate the memo with a neighbor walk, exactly as searches do:
		// provision each visited topology and record its effective links
		// with the run's direct-only audit bit.
		s := topology.InitialTopology(net)
		for i := 0; i < 25 && s != nil; i++ {
			links := slices.Clone(o.opt.ProvisionEffectiveEnum(s))
			key := s.AppendKey(nil)
			o.memo.putLinks(topology.KeyHash(key), key, links, o.opt.DirectOnly(), o.opt.SegmentOnly())
			s = o.computeNeighbor(rng, s)
		}
		directEntries := 0
		for i := 0; i < o.memo.used; i++ {
			if o.memo.entries[i].directOnly {
				directEntries++
			}
		}
		if directEntries == 0 {
			t.Fatalf("seed %d: raised reach produced no direct-only runs; scenario broken", seed)
		}

		// Fail the redundant duplicate plus a sample of primary-carrying
		// fibers; validate every migrated entry against cold provisioning.
		fids := []int{dupID}
		for fi := 0; fi < len(net.Fibers)-1; fi += 1 + len(net.Fibers)/4 {
			fids = append(fids, net.Fibers[fi].ID)
		}
		for _, fid := range fids {
			nw := o.WithoutFiber(fid)
			migrated := nw.memo.used
			migratedTotal += migrated
			droppedTotal += o.memo.used - migrated
			if fid == dupID && migrated < directEntries {
				t.Fatalf("seed %d: failing the redundant fiber migrated %d < %d direct-only entries",
					seed, migrated, directEntries)
			}

			ref := optical.NewState(nw.cfg.Net)
			for idx := 0; idx < migrated; idx++ {
				e := &nw.memo.entries[idx]
				n, reqLinks, ok := topology.DecodeKey(e.key, nil)
				if !ok || n != nw.cfg.Net.NumSites() {
					t.Fatalf("seed %d fiber %d: bad migrated key", seed, fid)
				}
				req := topology.NewLinkSet(n)
				for _, l := range reqLinks {
					req.Add(l.U, l.V, l.Count)
				}
				want := ref.ProvisionEffectiveEnum(req)
				name := fmt.Sprintf("seed %d sites %d fiber %d entry %d", seed, sites, fid, idx)
				got, ok := nw.memo.links(e.hash, e.key, nil)
				if !ok {
					t.Fatalf("%s: migrated entry serves no links", name)
				}
				if len(want) != len(got) {
					t.Fatalf("%s: migrated entry has %d links, cold provisioning %d",
						name, len(got), len(want))
				}
				for i, l := range want {
					if got[i] != l {
						t.Fatalf("%s: link %d: migrated %+v, cold %+v", name, i, got[i], l)
					}
				}
			}
			nw.Close()
		}
		o.Close()
	}
	if migratedTotal == 0 {
		t.Fatalf("no memo entry ever migrated; predicate is vacuously rejecting")
	}
	if droppedTotal == 0 {
		t.Fatalf("no memo entry ever dropped; predicate is vacuously accepting")
	}
	t.Logf("migrated %d entries, dropped %d", migratedTotal, droppedTotal)
}

// alternateMigrationNet is migrationNet with ONLY the duplicated fiber's
// original squeezed to a few wavelengths. Routes through that edge keep
// preferring the original (primary tables are load-blind), so once its λ run
// out segmentFeasible answers from the alternate tables — whose routes cross
// the roomy duplicate — and the run ends segment-only but not direct-only:
// the class the alternate-path audit exists for. Every other fiber keeps the
// default supply, so nothing exhausts globally and the regenerator graph
// (which would demote the run below the migratable tiers) is never consulted.
//
// Two more roomy parallels of the same edge are appended after the
// duplicate. The first pads the edge to kFiberPaths parallel fibers, so the
// second — the highest-index fiber of the network — can never appear in any
// pair's route table: every route through it has an identical-length sibling
// over a lower-index parallel, and the tables hold at most kFiberPaths
// routes. Failing that fiber (returned as cleanID) is therefore the
// alternate-tier analogue of failing migrationNet's duplicate: no primary
// moves, no alternate table changes, no fiber index shifts — the one event
// where even alternate-routed entries are provably still valid.
func alternateMigrationNet(sites, waves int) (*topology.Network, int, int) {
	net, dupID := migrationNet(sites)
	net.Fibers[0].Wavelengths = waves
	pad := net.Fibers[len(net.Fibers)-1] // the roomy duplicate
	pad.ID = dupID + 1
	clean := pad
	clean.ID = dupID + 2
	net.Fibers = append(net.Fibers, pad, clean)
	return net, dupID, clean.ID
}

// TestWithoutFiberAlternateCacheMigration extends the migration pin to the
// segment-only tier: entries whose provisioning run drew on alternate fiber
// routes must also survive a fiber failure — audited by SameSegmentRouting
// against the full alternate tables, not just the primaries — and every
// migrated entry must still reproduce cold provisioning on the reduced
// network link for link. Non-vacuity is asserted at three levels: the
// scenario must actually produce segment-only (not direct-only) runs, some
// of those entries must migrate, and some entries must still be dropped.
func TestWithoutFiberAlternateCacheMigration(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 3
	}
	migratedTotal, droppedTotal, segMigrated := 0, 0, 0
	segEntriesTotal := 0
	for seed := int64(0); seed < seeds; seed++ {
		sites := []int{12, 18, 70}[int(seed)%3]
		net, dupID, cleanID := alternateMigrationNet(sites, 3)
		o := New(Config{Net: net, Seed: 700 + seed})
		rng := rand.New(rand.NewSource(1100 + seed))

		s := topology.InitialTopology(net)
		for i := 0; i < 25 && s != nil; i++ {
			links := slices.Clone(o.opt.ProvisionEffectiveEnum(s))
			key := s.AppendKey(nil)
			o.memo.putLinks(topology.KeyHash(key), key, links, o.opt.DirectOnly(), o.opt.SegmentOnly())
			s = o.computeNeighbor(rng, s)
		}
		segEntries := 0
		for i := 0; i < o.memo.used; i++ {
			e := &o.memo.entries[i]
			if e.segmentOnly && !e.directOnly {
				segEntries++
			}
		}
		segEntriesTotal += segEntries

		fids := []int{cleanID, dupID}
		for fi := 0; fi < len(net.Fibers)-1; fi += 1 + len(net.Fibers)/4 {
			fids = append(fids, net.Fibers[fi].ID)
		}
		for _, fid := range fids {
			nw := o.WithoutFiber(fid)
			migrated := nw.memo.used
			migratedTotal += migrated
			droppedTotal += o.memo.used - migrated
			if fid == cleanID && migrated < segEntries {
				t.Fatalf("seed %d: failing the table-less parallel migrated %d entries, < %d segment-only ones",
					seed, migrated, segEntries)
			}

			ref := optical.NewState(nw.cfg.Net)
			for idx := 0; idx < migrated; idx++ {
				e := &nw.memo.entries[idx]
				if e.segmentOnly && !e.directOnly {
					segMigrated++
				}
				n, reqLinks, ok := topology.DecodeKey(e.key, nil)
				if !ok || n != nw.cfg.Net.NumSites() {
					t.Fatalf("seed %d fiber %d: bad migrated key", seed, fid)
				}
				req := topology.NewLinkSet(n)
				for _, l := range reqLinks {
					req.Add(l.U, l.V, l.Count)
				}
				want := ref.ProvisionEffectiveEnum(req)
				name := fmt.Sprintf("seed %d sites %d fiber %d entry %d", seed, sites, fid, idx)
				got, ok := nw.memo.links(e.hash, e.key, nil)
				if !ok {
					t.Fatalf("%s: migrated entry serves no links", name)
				}
				if len(want) != len(got) {
					t.Fatalf("%s: migrated entry has %d links, cold provisioning %d",
						name, len(got), len(want))
				}
				for i, l := range want {
					if got[i] != l {
						t.Fatalf("%s: link %d: migrated %+v, cold %+v", name, i, got[i], l)
					}
				}
			}
			nw.Close()
		}
		o.Close()
	}
	if segEntriesTotal == 0 {
		t.Fatalf("squeezed wavelengths produced no segment-only runs; scenario broken")
	}
	if segMigrated == 0 {
		t.Fatalf("no segment-only entry ever migrated; the alternate audit never fires")
	}
	if droppedTotal == 0 {
		t.Fatalf("no memo entry ever dropped; predicate is vacuously accepting")
	}
	t.Logf("segment-only entries %d, segment-only migrated %d, migrated %d, dropped %d",
		segEntriesTotal, segMigrated, migratedTotal, droppedTotal)
}
