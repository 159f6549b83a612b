// Package bitset provides the word-array bitset primitives behind every
// mask fast path in the repository: the allocator's live-adjacency and
// failure-cut masks, the optical layer's reach and regenerator-reach rows,
// and the node-weighted mask Dijkstra in internal/graph.
//
// The packages on the energy hot path keep their innermost loops as manual
// word arithmetic over []uint64 (an extra call or bounds check per BFS arc
// is measurable there), but they all share this package's layout: a set over
// [0, n) is Words(n) little-endian uint64 words, bit i of word i/64 is
// element i, and iteration is word-ascending then bit-ascending via
// TrailingZeros64 — which enumerates elements in ascending order, the
// property the bit-reproducibility proofs of the mask paths rest on.
package bitset

import "math/bits"

// Set is a fixed-capacity bitset over [0, n) stored as Words(n) uint64
// words. The zero value of length 0 is an empty set over nothing; use New or
// Grow to size one.
type Set []uint64

// Words returns the number of 64-bit words a set over [0, n) needs.
func Words(n int) int { return (n + 63) / 64 }

// New returns an empty set over [0, n).
func New(n int) Set { return make(Set, Words(n)) }

// Grow returns a zeroed set over [0, n), reusing s's backing array when it
// is large enough (the growF/grow32 idiom of the flat allocators).
func Grow(s Set, n int) Set {
	w := Words(n)
	if cap(s) < w {
		return make(Set, w)
	}
	s = s[:w]
	s.Zero()
	return s
}

// Test reports whether element i is in the set.
func (s Set) Test(i int) bool { return s[i>>6]>>(uint(i)&63)&1 == 1 }

// Set inserts element i.
func (s Set) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes element i.
func (s Set) Clear(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Zero empties the set.
func (s Set) Zero() {
	for i := range s {
		s[i] = 0
	}
}

// Or sets s to s ∪ t. The sets must have equal length.
func (s Set) Or(t Set) {
	for i, w := range t {
		s[i] |= w
	}
}

// Copy overwrites s with t. The sets must have equal length.
func (s Set) Copy(t Set) { copy(s, t) }

// Count returns the number of elements.
func (s Set) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEach calls f for every element in ascending order — word-ascending,
// then bit-ascending within a word via TrailingZeros64. This is the exact
// iteration order of the inlined mask loops, so anything proven about their
// visit order holds for ForEach too.
func (s Set) ForEach(f func(i int)) {
	for wi, w := range s {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			f(base + bits.TrailingZeros64(w))
		}
	}
}

// Closure sets out to src plus everything reachable from src over the
// adjacency rows — vertex v's neighbors are the set rows[v*w:(v+1)*w], where
// w = len(out) — by paths whose interior vertices all lie in through: a
// breadth-first search that expands src and the members of through it
// reaches, a word of neighbors at a time. done is scratch of out's length; it
// ends as the expanded vertices. through, done and out must have equal
// length, and out must not alias rows.
func Closure(out, done Set, rows []uint64, through Set, src int) {
	w := len(out)
	out.Zero()
	done.Zero()
	out.Set(src)
	done.Set(src)
	out.Or(Set(rows[src*w : (src+1)*w]))
	// Expand until a pass over the words finds nothing new: a vertex reached
	// in a later word is picked up in the same pass, one in an earlier word in
	// the next.
	for grew := true; grew; {
		grew = false
		for wi := range out {
			for m := out[wi] & through[wi] &^ done[wi]; m != 0; m = out[wi] & through[wi] &^ done[wi] {
				v := wi<<6 + bits.TrailingZeros64(m)
				done[wi] |= m & -m
				out.Or(Set(rows[v*w : (v+1)*w]))
				grew = true
			}
		}
	}
}
