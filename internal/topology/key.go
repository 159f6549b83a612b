package topology

import (
	"encoding/binary"
	"math"
)

// Key returns a canonical byte string uniquely identifying the link multiset
// (two LinkSets have equal keys iff Equal reports true). The encoding is the
// site count followed by the sorted links as (u, v, count) uvarint triples,
// mirroring the deterministic ordering of Links(). The key is compact enough
// to serve as a map key for energy memoization in internal/core.
func (ls *LinkSet) Key() string {
	return string(ls.AppendKey(nil))
}

// AppendKey appends the canonical key bytes (see Key) to buf and returns the
// extended slice. It encodes straight from the sorted view, so passing
// buf[:0] of a retained buffer makes it allocation-free.
func (ls *LinkSet) AppendKey(buf []byte) []byte {
	return AppendKeyFromLinks(buf, ls.N, ls.view)
}

// AppendKeyFromLinks appends the canonical key encoding of a topology with n
// sites and the given (U, V)-sorted aggregated links to buf. The result is
// byte-identical to AppendKey on a LinkSet holding exactly those links, which
// is what lets internal/core key patched candidate topologies without
// materializing them.
func AppendKeyFromLinks(buf []byte, n int, links []Link) []byte {
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, l := range links {
		buf = binary.AppendUvarint(buf, uint64(l.U))
		buf = binary.AppendUvarint(buf, uint64(l.V))
		buf = binary.AppendUvarint(buf, uint64(l.Count))
	}
	return buf
}

// KeyHash returns the 64-bit FNV-1a hash of a key produced by AppendKey /
// AppendKeyFromLinks. Unlike the key it can collide, so exact lookups must
// verify the full key bytes on a hash match (internal/core's topology memo
// does).
func KeyHash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// MergePatch merges a sorted patch into a sorted base link list, appending
// the result to dst and returning the extended slice. Both inputs are
// (U, V)-sorted aggregated links; a patch entry carries the NEW count for its
// pair (Count 0 deletes the pair). Pairs absent from the patch keep their
// base count. The output is byte-for-byte the enumeration AppendLinks would
// produce for the patched multiset, so a retained base list plus a small
// patch substitutes for re-enumerating (and re-sorting) a whole LinkSet —
// the warm-load trick behind alloc.(*Allocator).ThroughputPatched.
func MergePatch(dst []Link, base []Link, patch []Link) []Link {
	i, j := 0, 0
	for i < len(base) && j < len(patch) {
		b, p := base[i], patch[j]
		switch {
		case b.U < p.U || (b.U == p.U && b.V < p.V):
			dst = append(dst, b)
			i++
		case b.U == p.U && b.V == p.V:
			if p.Count > 0 {
				dst = append(dst, p)
			}
			i++
			j++
		default:
			if p.Count > 0 {
				dst = append(dst, p)
			}
			j++
		}
	}
	for ; i < len(base); i++ {
		dst = append(dst, base[i])
	}
	for ; j < len(patch); j++ {
		if patch[j].Count > 0 {
			dst = append(dst, patch[j])
		}
	}
	return dst
}

// DecodeKey parses a key produced by AppendKey / AppendKeyFromLinks back
// into the site count and the (U, V)-sorted link list, appending the links
// to dst. ok is false unless the bytes are exactly such a key: every varint
// minimal and within int, links strictly (U, V)-sorted with 0 ≤ U < V < n and
// Count ≥ 1 — so AppendKeyFromLinks re-encodes them to exactly the input. On
// failure dst comes back at its original length. This is the inverse the
// memo migration in internal/core needs: entries are keyed by the encoded
// topology, and deciding whether one survives a network change requires
// walking its links.
func DecodeKey(key []byte, dst []Link) (n int, _ []Link, ok bool) {
	orig := len(dst)
	next := func() (int, bool) {
		u64, k := binary.Uvarint(key)
		// k <= 0: truncated, or longer than 64 bits. A last byte of 0 past
		// the first is a non-minimal encoding, and a value past MaxInt does
		// not re-encode from an int.
		if k <= 0 || (k > 1 && key[k-1] == 0) || u64 > math.MaxInt {
			return 0, false
		}
		key = key[k:]
		return int(u64), true
	}
	if n, ok = next(); !ok {
		return 0, dst, false
	}
	prev := Link{U: -1}
	for len(key) > 0 {
		var l Link
		var okU, okV, okC bool
		l.U, okU = next()
		l.V, okV = next()
		l.Count, okC = next()
		sorted := l.U > prev.U || (l.U == prev.U && l.V > prev.V)
		if !okU || !okV || !okC || l.U >= l.V || l.V >= n || l.Count < 1 || !sorted {
			return 0, dst[:orig], false
		}
		dst = append(dst, l)
		prev = l
	}
	return n, dst, true
}
