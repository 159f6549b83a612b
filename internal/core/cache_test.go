package core

import (
	"math/rand"
	"slices"
	"testing"

	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/workload"
)

// TestEnergyCacheCollisionGuard: two different topologies whose keys land in
// the same bucket must never be confused, in either half of the memo. Real
// 64-bit FNV collisions are impractical to construct, but the memo takes the
// hash as an argument, so the test simulates a collision exactly as one
// would occur: two distinct link-set keys recorded under one hash value. The
// full key-byte verification on hit must keep them apart.
func TestEnergyCacheCollisionGuard(t *testing.T) {
	a := topology.NewLinkSet(4)
	a.Add(0, 1, 1)
	a.Add(2, 3, 1)
	b := topology.NewLinkSet(4)
	b.Add(0, 2, 1)
	b.Add(1, 3, 1)
	keyA := a.AppendKey(nil)
	keyB := b.AppendKey(nil)
	if string(keyA) == string(keyB) {
		t.Fatal("fixture broken: the two link sets encode identically")
	}

	c := newMemo(8)
	const collidingHash = 0xdeadbeef
	c.putEnergy(collidingHash, keyA, 1.5)
	c.putEnergy(collidingHash, keyB, 2.5)
	c.putLinks(collidingHash, keyB, b.Links(), true, true)

	if e, ok := c.energy(collidingHash, keyA); !ok || e != 1.5 {
		t.Fatalf("colliding key A: got (%v, %v), want (1.5, true)", e, ok)
	}
	if e, ok := c.energy(collidingHash, keyB); !ok || e != 2.5 {
		t.Fatalf("colliding key B: got (%v, %v), want (2.5, true)", e, ok)
	}
	if _, ok := c.links(collidingHash, keyA, nil); ok {
		t.Fatal("key A served its bucket-mate's links")
	}
	if got, ok := c.links(collidingHash, keyB, nil); !ok || len(got) != 2 || got[0] != b.Links()[0] {
		t.Fatalf("colliding key B links: got (%v, %v)", got, ok)
	}
	// A third key sharing the hash but never recorded must miss, not match.
	other := topology.NewLinkSet(4)
	other.Add(0, 3, 2)
	if _, ok := c.energy(collidingHash, other.AppendKey(nil)); ok {
		t.Fatal("unrecorded key hit on hash match alone")
	}
}

// testKey is the canonical key of a 4-site topology: (0, 1) ×1, (1, 2) ×3
// and (2, 3) ×(i+1), so distinct i give distinct keys of equal length. A
// links hit rebuilds the links from the key, so memo tests key real
// topologies.
func testKey(i int) []byte {
	return topology.AppendKeyFromLinks(nil, 4, []topology.Link{
		{U: 0, V: 1, Count: 1}, {U: 1, V: 2, Count: 3}, {U: 2, V: 3, Count: i + 1}})
}

// TestEnergyCacheKeyBufferReuse: the memo must copy the key, because the
// evaluator reuses its per-candidate key buffers every batch.
func TestEnergyCacheKeyBufferReuse(t *testing.T) {
	c := newMemo(8)
	buf := testKey(0)
	c.putEnergy(7, buf, 1.0)
	copy(buf, testKey(1)) // clobber the caller's buffer
	if e, ok := c.energy(7, testKey(0)); !ok || e != 1.0 {
		t.Fatalf("entry lost after caller buffer reuse: (%v, %v)", e, ok)
	}
	if _, ok := c.energy(7, buf); ok {
		t.Fatal("clobbered buffer contents found in the memo")
	}
}

// TestEnergyCacheEviction: LRU eviction must remove entries from both the
// list and their hash bucket, including when several keys share a bucket,
// and recording the second half of an existing entry must not grow the memo.
func TestEnergyCacheEviction(t *testing.T) {
	a, b, cc, d := testKey(0), testKey(1), testKey(2), testKey(3)
	c := newMemo(2)
	c.putEnergy(1, a, 1)
	c.putEnergy(1, b, 2)  // same bucket
	c.putEnergy(2, cc, 3) // evicts "a" (oldest)
	if _, ok := c.energy(1, a); ok {
		t.Fatal("evicted entry still served")
	}
	if e, ok := c.energy(1, b); !ok || e != 2 {
		t.Fatalf("surviving bucket-mate lost: (%v, %v)", e, ok)
	}
	if e, ok := c.energy(2, cc); !ok || e != 3 {
		t.Fatalf("newest entry lost: (%v, %v)", e, ok)
	}
	if got := bucketLen(c, 1); got != 1 {
		t.Fatalf("bucket 1 holds %d entries after eviction, want 1", got)
	}
	// Refreshing an existing key, or adding its links, must not grow the
	// memo or duplicate the entry.
	c.putEnergy(1, b, 20)
	c.putLinks(1, b, []topology.Link{{U: 0, V: 1, Count: 1}}, false, false)
	if e, _ := c.energy(1, b); e != 20 {
		t.Fatalf("refresh did not update energy: %v", e)
	}
	if _, ok := c.links(1, b, nil); !ok {
		t.Fatal("links of an existing entry not recorded")
	}
	if c.used != 2 || bucketLen(c, 1) != 1 {
		t.Fatalf("memo holds %d entries (bucket 1: %d) after refresh, want 2 (1)", c.used, bucketLen(c, 1))
	}
	// Eviction takes the whole entry, links and energy alike: "b" was used
	// last, so "c" goes.
	c.putEnergy(3, d, 4)
	if _, ok := c.energy(2, cc); ok {
		t.Fatal("LRU tail survived an insertion into a full memo")
	}
	if _, ok := c.links(1, b, nil); !ok {
		t.Fatal("recently used entry evicted")
	}
}

// bucketLen counts the entries chained under one hash bucket.
func bucketLen(c *memo, hash uint64) int {
	n := 0
	idx, ok := c.m[hash]
	if !ok {
		return 0
	}
	for ; idx >= 0; idx = c.entries[idx].bnext {
		n++
	}
	return n
}

// TestEnergyCacheResetKeepsBuffers: a new search makes every recorded energy
// stale while the links half survives, and clear drops every entry but
// retains the arena slots and their key buffers, so later fills allocate
// nothing for keys that fit.
func TestEnergyCacheResetKeepsBuffers(t *testing.T) {
	alpha, beta, gamma := testKey(0), testKey(1), testKey(2)
	c := newMemo(4)
	links := []topology.Link{{U: 1, V: 2, Count: 2}}
	c.putEnergy(1, alpha, 1)
	c.putLinks(1, alpha, links, true, true)
	c.putEnergy(2, beta, 2)
	c.begin()
	if _, ok := c.energy(1, alpha); ok {
		t.Fatal("energy served to a later search")
	}
	if got, ok := c.links(1, alpha, nil); !ok || len(got) != 1 || got[0] != links[0] {
		t.Fatalf("links lost across searches: (%v, %v)", got, ok)
	}
	kept := cap(c.entries[0].key)
	c.clear()
	if c.used != 0 {
		t.Fatalf("used = %d after clear", c.used)
	}
	if _, ok := c.links(1, alpha, nil); ok {
		t.Fatal("entry survived clear")
	}
	c.putEnergy(3, gamma, 3)
	if e, ok := c.energy(3, gamma); !ok || e != 3 {
		t.Fatalf("memo unusable after clear: (%v, %v)", e, ok)
	}
	if _, ok := c.links(3, gamma, nil); ok {
		t.Fatal("a reused slot served its previous occupant's links")
	}
	if cap(c.entries[0].key) != kept {
		t.Fatalf("slot 0 key buffer not reused: cap %d, want %d", cap(c.entries[0].key), kept)
	}
}

// TestEnergyCacheSteadyStateAllocs: a warmed-up memo must not allocate per
// lookup or record, including through evictions.
func TestEnergyCacheSteadyStateAllocs(t *testing.T) {
	c := newMemo(8)
	keys := make([][]byte, 32)
	for i := range keys {
		keys[i] = testKey(i)
	}
	links := []topology.Link{{U: 0, V: 1, Count: 1}, {U: 1, V: 2, Count: 3}}
	// A hit rebuilds the key's three links before dropping (2, 3).
	dst := make([]topology.Link, 0, len(links)+1)
	for i, k := range keys { // warm: force evictions so every slot has buffers
		c.putEnergy(uint64(i%4), k, float64(i))
		c.putLinks(uint64(i%4), k, links, true, true)
	}
	i := 0
	if avg := testing.AllocsPerRun(100, func() {
		k := keys[i%len(keys)]
		c.energy(uint64(i%4), k)
		c.putEnergy(uint64(i%4), k, float64(i))
		c.links(uint64(i%4), k, dst[:0])
		c.putLinks(uint64(i%4), k, links, true, true)
		i++
	}); avg != 0 {
		t.Fatalf("memo allocates %.1f per op cycle in steady state, want 0", avg)
	}
}

// TestMemoEnergyOnlyEntries: an entry recorded by a trusted delta
// evaluation holds an energy and no links, so it must never be served as
// links or carried across a fiber cut, whatever the validity predicate says.
func TestMemoEnergyOnlyEntries(t *testing.T) {
	deltaKey, cold := testKey(0), testKey(1)
	old := newMemo(8)
	old.putEnergy(1, deltaKey, 7)
	old.putLinks(2, cold, []topology.Link{{U: 0, V: 1, Count: 1}}, true, true)
	old.putEnergy(2, cold, 8)
	if _, ok := old.links(1, deltaKey, nil); ok {
		t.Fatal("energy-only entry served as links")
	}
	nw := newMemo(8)
	nw.migrateFrom(old, func([]byte, bool) bool { return true })
	if nw.used != 1 {
		t.Fatalf("migrated %d entries, want only the one with links", nw.used)
	}
	if _, ok := nw.links(2, cold, nil); !ok {
		t.Fatal("links entry not migrated")
	}
	if _, ok := nw.energy(2, cold); ok {
		t.Fatal("an energy migrated across a fiber cut")
	}
}

// TestMemoLinksRoundTrip is the differential behind the compact links half:
// whatever sub-multiset of its key's links an entry records — all of them,
// none, or any per-link built count in between — links returns exactly that
// enumeration after the caller's prefix, and an enumeration that is not a
// sub-multiset of the key is left unrecorded.
func TestMemoLinksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := newMemo(16)
	prefix := []topology.Link{{U: 7, V: 9, Count: 5}}
	for trial := 0; trial < 2000; trial++ {
		n := 3 + rng.Intn(60)
		req := topology.NewLinkSet(n)
		for i := rng.Intn(3 * n); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				req.Add(u, v, 1+rng.Intn(4))
			}
		}
		keyLinks := req.Links()
		var eff []topology.Link
		mode := rng.Intn(4) // 0: all built, 1: none built, else random
		for _, l := range keyLinks {
			built := l.Count
			switch {
			case mode == 1:
				built = 0
			case mode > 1:
				built = rng.Intn(l.Count + 1)
			}
			if built > 0 {
				eff = append(eff, topology.Link{U: l.U, V: l.V, Count: built})
			}
		}
		key := req.AppendKey(nil)
		hash := topology.KeyHash(key)
		c.putLinks(hash, key, eff, true, false)
		got, ok := c.links(hash, key, slices.Clone(prefix))
		if !ok {
			t.Fatalf("trial %d: recorded links missed", trial)
		}
		if got[0] != prefix[0] || !slices.Equal(got[1:], eff) {
			t.Fatalf("trial %d: links = %v, want %v after the prefix", trial, got, eff)
		}
		if mode == 0 && len(c.entries[c.head].lost) != 0 {
			t.Fatalf("trial %d: a fully built topology stores %d bytes", trial, len(c.entries[c.head].lost))
		}
		if len(keyLinks) == 0 {
			continue
		}
		// Not a sub-multiset: one more circuit than requested, or a pair
		// the key lacks. Neither may be recorded.
		over := slices.Clone(keyLinks)
		over[rng.Intn(len(over))].Count++
		extra := append(slices.Clone(keyLinks), topology.Link{U: n - 1, V: n, Count: 1})
		for name, bad := range map[string][]topology.Link{"over": over, "extra": extra} {
			c.clear()
			c.putLinks(hash, key, bad, true, false)
			if _, ok := c.links(hash, key, nil); ok {
				t.Fatalf("trial %d: %s enumeration recorded", trial, name)
			}
		}
	}
}

// TestMemoFootprintISP40 pins what a links entry costs, as a deterministic
// count rather than heap time: after a few slots on ISP40 every entry's
// buffers hold its key plus at most one byte per key link, where storing the
// effective links took 24 bytes per link. Some entries must store a loss, or
// the bound says nothing.
func TestMemoFootprintISP40(t *testing.T) {
	net := topology.ISP(40, 10, 1)
	reqs, err := workload.Generate(workload.Config{
		Sites:            net.NumSites(),
		MeanSizeGbits:    5 * workload.TB,
		TotalDemandGbits: 2000 * workload.TB,
		Load:             1,
		DurationSlots:    1,
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ts []*transfer.Transfer
	for _, r := range reqs {
		ts = append(ts, transfer.NewTransfer(r))
	}
	cfg := DefaultConfig(net)
	cfg.Seed = 5
	o := New(cfg)
	defer o.Close()
	cur := topology.InitialTopology(net)
	for slot := 0; slot < 4; slot++ {
		cur = o.ComputeNetworkState(cur, ts, 0, 300).Topology
	}
	entries, links, keyBytes, lostBytes, lossy := 0, 0, 0, 0, 0
	for idx := 0; idx < o.memo.used; idx++ {
		e := &o.memo.entries[idx]
		if !e.hasLinks {
			continue
		}
		_, keyLinks, ok := topology.DecodeKey(e.key, nil)
		if !ok {
			t.Fatalf("entry %d: undecodable key", idx)
		}
		if len(e.lost) > len(keyLinks) {
			t.Errorf("entry %d stores %d bytes for %d key links", idx, len(e.lost), len(keyLinks))
		}
		if len(e.lost) > 0 {
			lossy++
		}
		entries++
		links += len(keyLinks)
		keyBytes += len(e.key)
		lostBytes += len(e.lost)
	}
	if entries == 0 || lossy == 0 {
		t.Fatalf("%d links entries, %d with a loss: the bound is vacuous", entries, lossy)
	}
	t.Logf("%d links entries (%d with a loss): %d key bytes + %d loss bytes for %d key links",
		entries, lossy, keyBytes, lostBytes, links)
}
