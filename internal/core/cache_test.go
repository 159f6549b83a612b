package core

import (
	"testing"

	"owan/internal/topology"
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

// TestEnergyCacheKeyBufferReuse: the memo must copy the key, because the
// evaluator reuses its per-candidate key buffers every batch.
func TestEnergyCacheKeyBufferReuse(t *testing.T) {
	c := newMemo(8)
	buf := []byte("topology-one")
	c.putEnergy(7, buf, 1.0)
	copy(buf, "TOPOLOGY-two") // clobber the caller's buffer
	if e, ok := c.energy(7, []byte("topology-one")); !ok || e != 1.0 {
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
	c := newMemo(2)
	c.putEnergy(1, []byte("a"), 1)
	c.putEnergy(1, []byte("b"), 2) // same bucket
	c.putEnergy(2, []byte("c"), 3) // evicts "a" (oldest)
	if _, ok := c.energy(1, []byte("a")); ok {
		t.Fatal("evicted entry still served")
	}
	if e, ok := c.energy(1, []byte("b")); !ok || e != 2 {
		t.Fatalf("surviving bucket-mate lost: (%v, %v)", e, ok)
	}
	if e, ok := c.energy(2, []byte("c")); !ok || e != 3 {
		t.Fatalf("newest entry lost: (%v, %v)", e, ok)
	}
	if got := bucketLen(c, 1); got != 1 {
		t.Fatalf("bucket 1 holds %d entries after eviction, want 1", got)
	}
	// Refreshing an existing key, or adding its links, must not grow the
	// memo or duplicate the entry.
	c.putEnergy(1, []byte("b"), 20)
	c.putLinks(1, []byte("b"), []topology.Link{{U: 0, V: 1, Count: 1}}, false, false)
	if e, _ := c.energy(1, []byte("b")); e != 20 {
		t.Fatalf("refresh did not update energy: %v", e)
	}
	if _, ok := c.links(1, []byte("b"), nil); !ok {
		t.Fatal("links of an existing entry not recorded")
	}
	if c.used != 2 || bucketLen(c, 1) != 1 {
		t.Fatalf("memo holds %d entries (bucket 1: %d) after refresh, want 2 (1)", c.used, bucketLen(c, 1))
	}
	// Eviction takes the whole entry, links and energy alike: "b" was used
	// last, so "c" goes.
	c.putEnergy(3, []byte("d"), 4)
	if _, ok := c.energy(2, []byte("c")); ok {
		t.Fatal("LRU tail survived an insertion into a full memo")
	}
	if _, ok := c.links(1, []byte("b"), nil); !ok {
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
	c := newMemo(4)
	links := []topology.Link{{U: 0, V: 1, Count: 2}}
	c.putEnergy(1, []byte("alpha-key"), 1)
	c.putLinks(1, []byte("alpha-key"), links, true, true)
	c.putEnergy(2, []byte("beta-key"), 2)
	c.begin()
	if _, ok := c.energy(1, []byte("alpha-key")); ok {
		t.Fatal("energy served to a later search")
	}
	if got, ok := c.links(1, []byte("alpha-key"), nil); !ok || len(got) != 1 || got[0] != links[0] {
		t.Fatalf("links lost across searches: (%v, %v)", got, ok)
	}
	kept := cap(c.entries[0].key)
	c.clear()
	if c.used != 0 {
		t.Fatalf("used = %d after clear", c.used)
	}
	if _, ok := c.links(1, []byte("alpha-key"), nil); ok {
		t.Fatal("entry survived clear")
	}
	c.putEnergy(3, []byte("gamma"), 3)
	if e, ok := c.energy(3, []byte("gamma")); !ok || e != 3 {
		t.Fatalf("memo unusable after clear: (%v, %v)", e, ok)
	}
	if _, ok := c.links(3, []byte("gamma"), nil); ok {
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
		keys[i] = []byte{byte(i), 'k', 'e', 'y', byte(i)}
	}
	links := []topology.Link{{U: 0, V: 1, Count: 1}, {U: 1, V: 2, Count: 3}}
	dst := make([]topology.Link, 0, len(links))
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
	old := newMemo(8)
	old.putEnergy(1, []byte("delta"), 7)
	old.putLinks(2, []byte("cold"), []topology.Link{{U: 0, V: 1, Count: 1}}, true, true)
	old.putEnergy(2, []byte("cold"), 8)
	if _, ok := old.links(1, []byte("delta"), nil); ok {
		t.Fatal("energy-only entry served as links")
	}
	nw := newMemo(8)
	nw.migrateFrom(old, func([]byte, bool) bool { return true })
	if nw.used != 1 {
		t.Fatalf("migrated %d entries, want only the one with links", nw.used)
	}
	if _, ok := nw.links(2, []byte("cold"), nil); !ok {
		t.Fatal("links entry not migrated")
	}
	if _, ok := nw.energy(2, []byte("cold")); ok {
		t.Fatal("an energy migrated across a fiber cut")
	}
}
