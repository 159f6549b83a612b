package bitset

import (
	"math/rand"
	"testing"
)

// model is the naive reference: a set over [0, n) as map[int]bool.
type model struct {
	n int
	m map[int]bool
}

func newModel(n int) *model { return &model{n: n, m: map[int]bool{}} }

func (md *model) or(o *model) {
	for i := range o.m {
		md.m[i] = true
	}
}

func (md *model) elems() []int {
	out := []int{}
	for i := 0; i < md.n; i++ {
		if md.m[i] {
			out = append(out, i)
		}
	}
	return out
}

// checkAgainst asserts the Set and the model agree element for element, in
// count, membership, and iteration order (ForEach must enumerate
// ascending).
func checkAgainst(t *testing.T, s Set, md *model) {
	t.Helper()
	want := md.elems()
	if got := s.Count(); got != len(want) {
		t.Fatalf("Count: got %d, want %d", got, len(want))
	}
	for i := 0; i < md.n; i++ {
		if s.Test(i) != md.m[i] {
			t.Fatalf("Test(%d): got %v, want %v", i, s.Test(i), md.m[i])
		}
	}
	j := 0
	s.ForEach(func(i int) {
		if j >= len(want) || want[j] != i {
			t.Fatalf("ForEach visited %d at position %d, want sequence %v", i, j, want)
		}
		j++
	})
	if j != len(want) {
		t.Fatalf("ForEach visited %d elements, want %d", j, len(want))
	}
}

// TestSetMatchesModel drives random op sequences against the map model over
// sizes on both sides of the one-word boundary (the n <= 64 inline paths and
// the multi-word general path share this layout).
func TestSetMatchesModel(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 100, 128, 129, 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		s, md := New(n), newModel(n)
		o, od := New(n), newModel(n)
		for step := 0; step < 2000; step++ {
			i := rng.Intn(n)
			switch rng.Intn(6) {
			case 0, 1:
				s.Set(i)
				md.m[i] = true
			case 2:
				s.Clear(i)
				delete(md.m, i)
			case 3:
				o.Set(i)
				od.m[i] = true
			case 4:
				s.Or(o)
				md.or(od)
			case 5:
				o.Clear(i)
				delete(od.m, i)
			}
			checkAgainst(t, s, md)
		}
		s.Zero()
		md.m = map[int]bool{}
		checkAgainst(t, s, md)
	}
}

func TestWordsAndGrow(t *testing.T) {
	cases := []struct{ n, w int }{{0, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}}
	for _, c := range cases {
		if got := Words(c.n); got != c.w {
			t.Fatalf("Words(%d) = %d, want %d", c.n, got, c.w)
		}
	}
	s := New(65)
	s.Set(64)
	s = Grow(s, 40) // shrink within capacity: must come back zeroed
	if s.Count() != 0 {
		t.Fatal("Grow returned a non-empty set")
	}
	if len(s) != Words(40) {
		t.Fatalf("Grow length %d, want %d", len(s), Words(40))
	}
	g := Grow(s, 300)
	if len(g) != Words(300) || g.Count() != 0 {
		t.Fatalf("Grow(300): len %d count %d", len(g), g.Count())
	}
}

func TestCopy(t *testing.T) {
	a, b := New(130), New(130)
	for _, i := range []int{0, 63, 64, 99, 129} {
		b.Set(i)
	}
	a.Copy(b)
	for _, i := range []int{0, 63, 64, 99, 129} {
		if !a.Test(i) {
			t.Fatalf("Copy lost element %d", i)
		}
	}
	if a.Count() != b.Count() {
		t.Fatalf("Copy count %d != %d", a.Count(), b.Count())
	}
}

// TestClosureMatchesBFS holds Closure to a queue BFS over the same adjacency
// matrix that expands the source and the through vertices it reaches: random
// graphs of 1 to 200 vertices (one and several words), densities from sparse
// to dense, and through sets from empty to full.
func TestClosureMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		w := Words(n)
		adj := make([]bool, n*n)
		rows := make([]uint64, n*w)
		density, share := rng.Float64()*0.1, rng.Float64()
		through := New(n)
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				if rng.Float64() < density {
					adj[v*n+u] = true
					Set(rows[v*w : (v+1)*w]).Set(u)
				}
			}
			if rng.Float64() < share {
				through.Set(v)
			}
		}
		out, done := New(n), New(n)
		for src := 0; src < n; src++ {
			seen := make([]bool, n)
			seen[src] = true
			for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
				x := queue[0]
				for u := 0; u < n; u++ {
					if !seen[u] && adj[x*n+u] {
						seen[u] = true
						if through.Test(u) {
							queue = append(queue, u)
						}
					}
				}
			}
			Closure(out, done, rows, through, src)
			for u := 0; u < n; u++ {
				if out.Test(u) != seen[u] {
					t.Fatalf("trial %d (n=%d), source %d: vertex %d in closure %v, BFS says %v", trial, n, src, u, out.Test(u), seen[u])
				}
			}
		}
	}
}
