package topology

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestLinksOwnership pins the Links ownership contract: every call returns a
// fresh slice the caller may reorder or mutate without affecting the LinkSet
// or later calls (optical.ProvisionTopology historically sorted the result
// in place, which would corrupt a shared slice).
func TestLinksOwnership(t *testing.T) {
	ls := NewLinkSet(5)
	ls.Add(0, 1, 2)
	ls.Add(1, 3, 1)
	ls.Add(2, 4, 3)

	a := ls.Links()
	// Mutate the returned slice aggressively.
	sort.Slice(a, func(i, j int) bool { return a[i].V > a[j].V })
	for i := range a {
		a[i].U, a[i].V, a[i].Count = 99, 99, 99
	}

	b := ls.Links()
	if len(b) != 3 {
		t.Fatalf("second Links() call has %d links, want 3", len(b))
	}
	want := []Link{{U: 0, V: 1, Count: 2}, {U: 1, V: 3, Count: 1}, {U: 2, V: 4, Count: 3}}
	for i, l := range b {
		if l != want[i] {
			t.Errorf("link %d = %+v after mutating a prior result, want %+v", i, l, want[i])
		}
	}
	if ls.Get(0, 1) != 2 || ls.Get(1, 3) != 1 || ls.Get(2, 4) != 3 {
		t.Error("mutating a Links() result changed the LinkSet")
	}
}

// TestLinksSorted pins the (U, V)-sorted enumeration order that both the
// optical provisioning order and the flat allocator's edge-id minting rely
// on for determinism.
func TestLinksSorted(t *testing.T) {
	ls := NewLinkSet(6)
	// Insert in scrambled order; Links must still come out sorted.
	ls.Add(4, 5, 1)
	ls.Add(0, 3, 1)
	ls.Add(2, 3, 1)
	ls.Add(0, 1, 1)
	ls.Add(1, 5, 1)
	out := ls.Links()
	for i := 1; i < len(out); i++ {
		a, b := out[i-1], out[i]
		if a.U > b.U || (a.U == b.U && a.V >= b.V) {
			t.Fatalf("links not (U,V)-sorted: %+v before %+v", a, b)
		}
	}
}

// TestAppendLinksReusesBuffer documents AppendLinks: it appends onto the
// given buffer (sorting only the appended region) so hot-path callers can
// amortize the slice.
func TestAppendLinksReusesBuffer(t *testing.T) {
	ls := NewLinkSet(4)
	ls.Add(2, 3, 1)
	ls.Add(0, 1, 2)

	buf := make([]Link, 0, 8)
	out := ls.AppendLinks(buf)
	if len(out) != 2 || &out[0] != &buf[:1][0] {
		t.Fatal("AppendLinks should append into the provided buffer")
	}
	// Reuse with truncation, as the allocator does.
	out2 := ls.AppendLinks(out[:0])
	if len(out2) != 2 || out2[0] != (Link{U: 0, V: 1, Count: 2}) || out2[1] != (Link{U: 2, V: 3, Count: 1}) {
		t.Fatalf("AppendLinks reuse produced %+v", out2)
	}
	// Appending after a prefix leaves the prefix untouched and sorts only
	// the new region.
	prefix := []Link{{U: 9, V: 9, Count: 9}}
	out3 := ls.AppendLinks(prefix)
	if out3[0] != (Link{U: 9, V: 9, Count: 9}) {
		t.Fatalf("AppendLinks disturbed the existing prefix: %+v", out3)
	}
	if out3[1] != (Link{U: 0, V: 1, Count: 2}) || out3[2] != (Link{U: 2, V: 3, Count: 1}) {
		t.Fatalf("AppendLinks appended region wrong: %+v", out3[1:])
	}
}

// scratchSorted builds the enumeration the pre-view way — a full map walk
// plus a from-scratch sort — bypassing the incremental sorted view entirely.
// It is the reference TestViewMatchesScratchSort compares against.
func scratchSorted(ls *LinkSet) []Link {
	out := make([]Link, 0, len(ls.count))
	for k, c := range ls.count {
		out = append(out, Link{U: k[0], V: k[1], Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// TestViewMatchesScratchSort is the property the incrementally patched view
// rides on (see the LinkSet.view comment): after ANY sequence of mutations —
// inserts, count updates, removals down to zero, Clear, Clone, CopyFrom —
// the view-backed enumeration is element-identical to a from-scratch sort of
// the count map, and Diff, Equal and TotalCircuits, which read the view and
// the cached total, agree with their map-walking references against an
// earlier state of the walk. The check runs after every operation, so a
// patch that desynchronizes the view is caught at the operation that broke
// it, not at the end of the walk.
func TestViewMatchesScratchSort(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed) + 7700))
		n := 4 + rng.Intn(90)
		ls := NewLinkSet(n)
		prev := NewLinkSet(n) // an earlier state of the walk, to diff against
		for op := 0; op < 80; op++ {
			switch r := rng.Float64(); {
			case r < 0.50: // insert or bump
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				ls.Add(u, v, 1+rng.Intn(3))
			case r < 0.72: // decrement, sometimes down to removal
				links := scratchSorted(ls)
				if len(links) == 0 {
					continue
				}
				l := links[rng.Intn(len(links))]
				ls.Add(l.U, l.V, -(1 + rng.Intn(l.Count)))
			case r < 0.78:
				ls.Clear()
			case r < 0.85: // continue the walk on a clone; the original must
				// be unaffected by everything that follows
				c := ls.Clone()
				frozen := scratchSorted(ls)
				old := ls
				ls = c
				defer func(old *LinkSet, frozen []Link, seed int) {
					got := old.AppendLinks(nil)
					if len(got) != len(frozen) {
						t.Errorf("seed %d: clone mutations leaked into original (len %d != %d)",
							seed, len(got), len(frozen))
						return
					}
					for i := range got {
						if got[i] != frozen[i] {
							t.Errorf("seed %d: clone mutations leaked into original at %d: %+v != %+v",
								seed, i, got[i], frozen[i])
							return
						}
					}
				}(old, frozen, seed)
			case r < 0.92: // CopyFrom replaces the map wholesale and must
				// carry the source's view and total with it
				src := NewLinkSet(n)
				for _, l := range scratchSorted(ls) {
					src.Add(l.U, l.V, l.Count)
				}
				ls.CopyFrom(src)
			default:
				prev = ls.Clone()
			}
			want := scratchSorted(ls)
			got := ls.AppendLinks(nil)
			if len(got) != len(want) {
				t.Fatalf("seed %d op %d: view has %d links, scratch sort %d",
					seed, op, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d op %d: view[%d] = %+v, scratch sort %+v",
						seed, op, i, got[i], want[i])
				}
			}
			if got, want := ls.TotalCircuits(), refTotalCircuits(ls); got != want {
				t.Fatalf("seed %d op %d: TotalCircuits = %d, map walk %d", seed, op, got, want)
			}
			for _, pair := range [][2]*LinkSet{{ls, prev}, {prev, ls}, {ls, ls.Clone()}} {
				a, b := pair[0], pair[1]
				if got, want := a.Diff(b), refDiff(a, b); got != want {
					t.Fatalf("seed %d op %d: Diff = %d, map walk %d", seed, op, got, want)
				}
				if got, want := a.Equal(b), refEqual(a, b); got != want {
					t.Fatalf("seed %d op %d: Equal = %v, map walk %v", seed, op, got, want)
				}
			}
		}
	}
}

// TestConcurrentReaders: no read method writes, so goroutines may enumerate,
// diff and index a LinkSet fresh from its Adds with no lock. Under -race
// this fails if a first enumeration builds state lazily.
func TestConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ls := randomLinkSet(rng, 40, 200)
	other := randomLinkSet(rng, 40, 200)
	want := scratchSorted(ls)
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got := ls.AppendLinks(nil)
				if len(got) != len(want) {
					errs <- "AppendLinks lost links"
					return
				}
				if ls.Diff(other) != refDiff(ls, other) || ls.Get(want[0].U, want[0].V) != want[0].Count {
					errs <- "Diff or Get disagrees with the map"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestReadsDoNotAllocate: churn, size and the canonical key into a
// retained buffer cost no allocation — the annealing loop calls them on
// every proposal.
func TestReadsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomLinkSet(rng, 40, 200)
	b := a.Clone()
	b.Add(0, 1, 1)
	b.Add(2, 3, 2)
	buf := a.AppendKey(nil)
	sink := 0
	for name, f := range map[string]func(){
		"Diff":          func() { sink += a.Diff(b) },
		"TotalCircuits": func() { sink += a.TotalCircuits() },
		"AppendKey":     func() { buf = a.AppendKey(buf[:0]) },
	} {
		if avg := testing.AllocsPerRun(100, f); avg != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", name, avg)
		}
	}
	if sink == 0 || len(buf) == 0 {
		t.Fatal("reads computed nothing")
	}
}
