package topology

import (
	"math/rand"
	"slices"
	"testing"
)

// randomLinkSet builds a LinkSet by insertion in random order, so map
// iteration cannot accidentally align between two equal sets.
func randomLinkSet(rng *rand.Rand, n, links int) *LinkSet {
	ls := NewLinkSet(n)
	for i := 0; i < links; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		ls.Add(u, v, 1+rng.Intn(3))
	}
	return ls
}

func TestKeyMatchesEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := randomLinkSet(rng, 2+rng.Intn(12), rng.Intn(20))
		b := a.Clone()
		if a.Key() != b.Key() {
			t.Fatalf("clone key differs: %v", a.Links())
		}
		c := randomLinkSet(rng, a.N, rng.Intn(20))
		if a.Equal(c) != (a.Key() == c.Key()) {
			t.Fatalf("Key disagrees with Equal:\n a=%v\n c=%v", a.Links(), c.Links())
		}
	}
}

func TestKeyInsertionOrderIndependent(t *testing.T) {
	a := NewLinkSet(6)
	a.Add(0, 1, 2)
	a.Add(3, 4, 1)
	a.Add(2, 5, 3)
	b := NewLinkSet(6)
	b.Add(5, 2, 3) // reversed endpoints, different order
	b.Add(4, 3, 1)
	b.Add(1, 0, 1)
	b.Add(0, 1, 1)
	if a.Key() != b.Key() {
		t.Error("keys differ for equal multisets built in different orders")
	}
}

func TestKeyDistinguishes(t *testing.T) {
	base := NewLinkSet(5)
	base.Add(0, 1, 2)
	base.Add(1, 2, 1)

	diffCount := base.Clone()
	diffCount.Add(0, 1, 1)
	diffLink := base.Clone()
	diffLink.Add(3, 4, 1)
	diffN := base.Clone()
	diffN.N = 6
	empty := NewLinkSet(5)

	for name, other := range map[string]*LinkSet{
		"count": diffCount, "link": diffLink, "sites": diffN, "empty": empty,
	} {
		if base.Key() == other.Key() {
			t.Errorf("%s: key collision between different sets", name)
		}
	}
}

func TestKeySwapMoveChangesKey(t *testing.T) {
	// The annealing neighbor move (remove (u,v)+(p,q), add (u,p)+(v,q))
	// preserves degrees; the key must still tell the states apart.
	a := NewLinkSet(4)
	a.Add(0, 1, 1)
	a.Add(2, 3, 1)
	b := NewLinkSet(4)
	b.Add(0, 2, 1)
	b.Add(1, 3, 1)
	if a.Key() == b.Key() {
		t.Error("degree-preserving rewiring produced identical keys")
	}
}

// TestAppendKeyFromLinksMatchesKey pins the flat encoding used by the delta
// evaluator (scratch links + AppendKeyFromLinks) to the canonical Key().
func TestAppendKeyFromLinksMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var links []Link
	var buf []byte
	for trial := 0; trial < 200; trial++ {
		ls := randomLinkSet(rng, 2+rng.Intn(12), rng.Intn(20))
		links = ls.AppendLinks(links[:0])
		buf = AppendKeyFromLinks(buf[:0], ls.N, links)
		if string(buf) != ls.Key() {
			t.Fatalf("AppendKeyFromLinks diverges from Key for %v", links)
		}
	}
}

// TestMergePatchMatchesRebuild checks that merging a patch into a retained
// sorted base enumeration equals re-enumerating the patched LinkSet.
func TestMergePatchMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var base, patch, merged, want []Link
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(10)
		ls := randomLinkSet(rng, n, rng.Intn(16))
		base = ls.AppendLinks(base[:0])

		// Mutate a clone with random set/remove/insert operations and record
		// the NEW counts of every touched pair as the patch.
		patched := ls.Clone()
		touched := map[[2]int]bool{}
		for op := 0; op < 1+rng.Intn(5); op++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			cur := patched.Get(u, v)
			next := rng.Intn(4) // 0 deletes
			patched.Add(u, v, next-cur)
			touched[canon(u, v)] = true
		}
		patch = patch[:0]
		for k := range touched {
			patch = append(patch, Link{U: k[0], V: k[1], Count: patched.Get(k[0], k[1])})
		}
		slices.SortFunc(patch, func(a, b Link) int {
			if a.U != b.U {
				return a.U - b.U
			}
			return a.V - b.V
		})

		merged = MergePatch(merged[:0], base, patch)
		want = patched.AppendLinks(want[:0])
		if !slices.Equal(merged, want) {
			t.Fatalf("MergePatch mismatch:\n base=%v\n patch=%v\n got=%v\n want=%v", base, patch, merged, want)
		}
	}
}

// TestDecodeKeyRoundTrip: every key AppendKey produces decodes to its own
// site count and links, appended after whatever dst already held.
func TestDecodeKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prefix := []Link{{U: 7, V: 9, Count: 1}}
	for trial := 0; trial < 300; trial++ {
		ls := randomLinkSet(rng, 2+rng.Intn(300), rng.Intn(40))
		n, links, ok := DecodeKey(ls.AppendKey(nil), slices.Clone(prefix))
		if !ok || n != ls.N {
			t.Fatalf("trial %d: DecodeKey = (%d, ok=%v), want (%d, true)", trial, n, ok, ls.N)
		}
		if links[0] != prefix[0] || !slices.Equal(links[1:], ls.Links()) {
			t.Fatalf("trial %d: decoded %v, want %v after the prefix", trial, links, ls.Links())
		}
	}
}

// TestDecodeKeyRejectsMalformed: bytes that are not exactly an AppendKey
// encoding must come back ok = false, with dst at its original length.
func TestDecodeKeyRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		key  []byte
	}{
		{"empty", nil},
		{"truncated link", []byte{4, 0, 1}},
		{"site past n", []byte{2, 5, 7, 1}},
		{"U above V, zero count", []byte{4, 2, 1, 0}},
		{"U equals V", []byte{4, 1, 1, 1}},
		{"unsorted pairs", []byte{4, 2, 1, 1, 0, 1, 1}},
		{"duplicate pair", []byte{4, 0, 1, 1, 0, 1, 2}},
		{"non-minimal varint", []byte{4, 0x81, 0x00, 3, 1}},
		{"non-minimal site count", []byte{0x84, 0x00}},
		{"site count -1", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		{"varint past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
	} {
		dst := []Link{{U: 0, V: 1, Count: 1}}
		n, links, ok := DecodeKey(tc.key, dst)
		if ok {
			t.Errorf("%s: % x decoded as n=%d links=%v, want ok = false", tc.name, tc.key, n, links[1:])
		}
		if len(links) != 1 {
			t.Errorf("%s: dst grew to %d links on failure", tc.name, len(links))
		}
	}
}

// FuzzDecodeKey: whatever DecodeKey accepts re-encodes to exactly its input,
// with links strictly (U, V)-sorted, 0 ≤ U < V < n and Count ≥ 1. Seeded
// from real keys (and testdata/fuzz/FuzzDecodeKey holds malformed ones).
func FuzzDecodeKey(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		f.Add(randomLinkSet(rng, 2+rng.Intn(200), rng.Intn(30)).AppendKey(nil))
	}
	f.Fuzz(func(t *testing.T, key []byte) {
		n, links, ok := DecodeKey(key, nil)
		if !ok {
			if len(links) != 0 {
				t.Fatalf("rejected % x but appended %v", key, links)
			}
			return
		}
		if got := AppendKeyFromLinks(nil, n, links); !slices.Equal(got, key) {
			t.Fatalf("% x decoded to n=%d %v, which re-encodes to % x", key, n, links, got)
		}
		for i, l := range links {
			if l.U < 0 || l.U >= l.V || l.V >= n || l.Count < 1 {
				t.Fatalf("% x: link %d = %+v out of range for n=%d", key, i, l, n)
			}
			if i > 0 && (links[i-1].U > l.U || (links[i-1].U == l.U && links[i-1].V >= l.V)) {
				t.Fatalf("% x: links %d, %d not strictly sorted: %v", key, i-1, i, links)
			}
		}
	})
}
