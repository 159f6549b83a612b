package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"

	"owan/internal/topology"
)

// memoCap is the topology memo's capacity in entries. An entry holds its
// canonical key (a few hundred bytes on ISP100) and at most a byte or two
// per key link that provisioning could not fully build, so the memo stays
// small; within one search it still holds every candidate a paper-scale
// slot evaluates.
const memoCap = 128

// memo is the controller's topology memo: an LRU from canonical topology keys
// (topology.AppendKeyFromLinks) to the two pure functions the energy
// (Algorithm 3) is built from. Each entry carries two optional halves:
//
//   - links: the effective (optically realized) link enumeration of the
//     topology and the provisioning run's audit tier. Provisioning always
//     starts from an empty optical state, so the links depend on the topology
//     alone and live across slots: the warm-started first evaluation of slot
//     N+1 is slot N's output, a near-guaranteed hit. Provisioning builds at
//     most the requested count of every link, in key order, so the effective
//     links are a sub-multiset of the key's: an entry stores only what
//     provisioning lost (see appendLost) and a hit rebuilds the links from
//     the key. An entry whose topology was fully built stores nothing.
//   - energy: the throughput of the topology under one search's demand set,
//     stamped with that search. It is served only while the stamp is current,
//     since the next slot's demands differ.
//
// An entry written by a trusted delta evaluation has an energy and no links;
// it is never served as links and never migrated.
//
// The arena uses index-linked entries and retains every slot's key and link
// buffers across evictions, so a warmed-up memo does not allocate. A hit
// verifies the full key bytes (the hash only selects the bucket), so a hash
// collision can never serve another topology's value. The mutex lets
// evaluator workers read and fill the links half concurrently; links are
// rebuilt into the caller's buffer under the lock, so an eviction racing a
// hit never hands a caller a recycled buffer.
type memo struct {
	mu         sync.Mutex
	cap        int
	m          map[uint64]int32 // hash -> index of the bucket's chain head
	entries    []memoEntry      // arena; slots [0, used) are live
	used       int
	head, tail int32 // intrusive LRU list, head = most recently used
	// search stamps the running search's energies. It starts at 1 and
	// entries without an energy carry 0, so they never read as current.
	search uint64
	// Scratch for putLinks, under mu: the decoded key and the encoding.
	keyLinks []topology.Link
	lostBuf  []byte
}

type memoEntry struct {
	hash uint64
	key  []byte
	// The links half, valid when hasLinks. directOnly means every circuit
	// was a single direct segment on its pair's PRIMARY route; segmentOnly
	// means every circuit was a direct segment on its primary or one of its
	// precomputed ALTERNATES (no regenerator graph). Only these two classes
	// can be proven still valid after a fiber removal (see migrateFrom).
	hasLinks    bool
	lost        []byte // appendLost's encoding against key
	directOnly  bool
	segmentOnly bool
	// The energy half, current when search == memo.search.
	energy float64
	search uint64
	prev   int32 // LRU neighbors, -1 terminated
	next   int32
	bnext  int32 // next entry in the same hash bucket, -1 terminated
}

func newMemo(capacity int) *memo {
	return &memo{cap: capacity, m: make(map[uint64]int32, capacity), head: -1, tail: -1, search: 1}
}

// begin starts a new search: every recorded energy goes stale, links stay.
func (c *memo) begin() {
	c.mu.Lock()
	c.search++
	c.mu.Unlock()
}

// find returns the arena index of the exact key, or -1.
func (c *memo) find(hash uint64, key []byte) int32 {
	idx, ok := c.m[hash]
	if !ok {
		return -1
	}
	for ; idx >= 0; idx = c.entries[idx].bnext {
		if bytes.Equal(c.entries[idx].key, key) {
			return idx
		}
	}
	return -1
}

func (c *memo) moveToFront(idx int32) {
	if c.head == idx {
		return
	}
	e := &c.entries[idx]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	}
	if c.tail == idx {
		c.tail = e.prev
	}
	e.prev = -1
	e.next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = idx
	}
	c.head = idx
	if c.tail < 0 {
		c.tail = idx
	}
}

// bucketRemove unlinks an entry from its hash bucket's chain.
func (c *memo) bucketRemove(idx int32) {
	e := &c.entries[idx]
	if head := c.m[e.hash]; head == idx {
		if e.bnext < 0 {
			delete(c.m, e.hash)
		} else {
			c.m[e.hash] = e.bnext
		}
		return
	}
	for p := c.m[e.hash]; p >= 0; p = c.entries[p].bnext {
		if c.entries[p].bnext == idx {
			c.entries[p].bnext = e.bnext
			return
		}
	}
}

// slot returns the entry for key at the LRU front, inserting an empty one —
// no links, no energy — when the key is new. Insertion evicts the LRU tail
// once the memo is full, reusing its key and link buffers. Callers hold mu.
func (c *memo) slot(hash uint64, key []byte) *memoEntry {
	if idx := c.find(hash, key); idx >= 0 {
		c.moveToFront(idx)
		return &c.entries[idx]
	}
	var idx int32
	if c.used < c.cap {
		if c.used == len(c.entries) {
			c.entries = append(c.entries, memoEntry{})
		}
		idx = int32(c.used)
		c.used++
	} else {
		idx = c.tail
		c.bucketRemove(idx)
		c.tail = c.entries[idx].prev
		if c.tail >= 0 {
			c.entries[c.tail].next = -1
		}
		if c.head == idx {
			c.head = -1
		}
	}
	e := &c.entries[idx]
	e.hash = hash
	e.key = append(e.key[:0], key...)
	e.hasLinks = false
	e.search = 0
	if h, ok := c.m[hash]; ok {
		e.bnext = h
	} else {
		e.bnext = -1
	}
	c.m[hash] = idx
	e.prev = -1
	e.next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = idx
	}
	c.head = idx
	if c.tail < 0 {
		c.tail = idx
	}
	return e
}

// energy returns the topology's energy under the running search, if recorded.
func (c *memo) energy(hash uint64, key []byte) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := c.find(hash, key)
	if idx < 0 || c.entries[idx].search != c.search {
		return 0, false
	}
	c.moveToFront(idx)
	return c.entries[idx].energy, true
}

// putEnergy records the topology's energy under the running search.
func (c *memo) putEnergy(hash uint64, key []byte, energy float64) {
	c.mu.Lock()
	e := c.slot(hash, key)
	e.energy, e.search = energy, c.search
	c.mu.Unlock()
}

// links appends the topology's effective links to dst and reports whether
// the memo held them. The returned slice is owned by the caller.
func (c *memo) links(hash uint64, key []byte, dst []topology.Link) ([]topology.Link, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := c.find(hash, key)
	if idx < 0 || !c.entries[idx].hasLinks {
		return dst, false
	}
	_, out, ok := topology.DecodeKey(c.entries[idx].key, dst)
	if !ok {
		return dst, false
	}
	c.moveToFront(idx)
	eff := applyLost(out[len(dst):], c.entries[idx].lost)
	return out[:len(dst)+len(eff)], true
}

// putLinks records the topology's effective links and the provisioning
// run's audit tier. links must be a sub-multiset of the key's links in key
// order, as provisioning produces them; an enumeration that is not is left
// unrecorded, since the entry could not represent it.
func (c *memo) putLinks(hash uint64, key []byte, links []topology.Link, directOnly, segmentOnly bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, keyLinks, ok := topology.DecodeKey(key, c.keyLinks[:0])
	c.keyLinks = keyLinks
	if !ok {
		return
	}
	if c.lostBuf, ok = appendLost(c.lostBuf[:0], keyLinks, links); ok {
		c.put(hash, key, c.lostBuf, directOnly, segmentOnly)
	}
}

// put records an entry's links half in its encoded form. Callers hold mu.
func (c *memo) put(hash uint64, key, lost []byte, directOnly, segmentOnly bool) {
	e := c.slot(hash, key)
	e.hasLinks = true
	e.lost = append(e.lost[:0], lost...)
	e.directOnly, e.segmentOnly = directOnly, segmentOnly
}

// appendLost encodes the effective links eff against the requested links
// keyLinks, both (U, V)-sorted, and appends the encoding to dst: for every
// requested link built below its count, the number of fully built requested
// links since the previous such link and the built count, as two uvarints.
// ok is false when eff is not a sub-multiset of keyLinks.
func appendLost(dst []byte, keyLinks, eff []topology.Link) (_ []byte, ok bool) {
	j, gap := 0, uint64(0)
	for _, l := range keyLinks {
		built := 0
		if j < len(eff) && eff[j].U == l.U && eff[j].V == l.V {
			built = eff[j].Count
			j++
		}
		switch {
		case built > l.Count:
			return dst, false
		case built < l.Count:
			dst = binary.AppendUvarint(dst, gap)
			dst = binary.AppendUvarint(dst, uint64(built))
			gap = 0
		default:
			gap++
		}
	}
	return dst, j == len(eff)
}

// applyLost turns the requested links into the effective ones in place:
// it sets the built count appendLost recorded for each link provisioning
// lost circuits on and drops the links it built none of.
func applyLost(links []topology.Link, lost []byte) []topology.Link {
	if len(lost) == 0 {
		return links
	}
	i := 0
	for len(lost) > 0 {
		gap, k := binary.Uvarint(lost)
		lost = lost[k:]
		built, k := binary.Uvarint(lost)
		lost = lost[k:]
		i += int(gap)
		links[i].Count = int(built)
		i++
	}
	return slices.DeleteFunc(links, func(l topology.Link) bool { return l.Count == 0 })
}

// migrateFrom copies the links halves of old's still-valid entries into c,
// oldest first, so old's most recent entry ends up at c's LRU front.
// Energies never migrate. An entry qualifies when its provisioning run
// stayed on the direct-segment fast path — primary-only (directOnly) or
// primaries plus alternates (segmentOnly) — AND valid confirms its topology
// routes identically on the new network at that tier: together those prove
// the links are what provisioning the topology from scratch on the new
// network would produce, so migration never serves a stale result. valid
// receives the tier so it audits only the tables the run consulted. An
// entry's encoding depends only on its key and links, so it moves as is.
func (c *memo) migrateFrom(old *memo, valid func(key []byte, direct bool) bool) {
	old.mu.Lock()
	defer old.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for idx := old.tail; idx >= 0; idx = old.entries[idx].prev {
		e := &old.entries[idx]
		if e.hasLinks && (e.directOnly || e.segmentOnly) && valid(e.key, e.directOnly) {
			c.put(e.hash, e.key, e.lost, e.directOnly, e.segmentOnly)
		}
	}
}

// clear empties the memo (provisioning-semantics knobs changed); buffers are
// retained.
func (c *memo) clear() {
	c.mu.Lock()
	clear(c.m)
	c.used = 0
	c.head, c.tail = -1, -1
	c.mu.Unlock()
}
