package topology

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// referencePrimTree is the spanning-tree step of ISP as it stood before
// primTree: every step scans every (tree site, outside site) pair for the
// shortest edge, O(n³) distance calls in all. Scanning tree ends, then new
// sites, in ascending order with a strict comparison is the tie order
// primTree keeps.
func referencePrimTree(sites int, dist func(a, b int) float64) [][2]int {
	inTree := make([]bool, sites)
	inTree[0] = true
	var edges [][2]int
	for count := 1; count < sites; count++ {
		bi, bj, bd := -1, -1, 1e18
		for i := 0; i < sites; i++ {
			if !inTree[i] {
				continue
			}
			for j := 0; j < sites; j++ {
				if inTree[j] {
					continue
				}
				if d := dist(i, j); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		inTree[bj] = true
		edges = append(edges, [2]int{bi, bj})
	}
	return edges
}

// referencePlaceRegenerators is PlaceRegenerators as it stood before the
// bitset reach rows: all-pairs distances from full searches, and for every
// candidate site a byte-array BFS per source that scans every site of each
// one it expands.
func referencePlaceRegenerators(n *Network, poolSize int) {
	ns := len(n.Sites)
	fg := n.FiberGraph()
	dist := make([][]float64, ns)
	for i := 0; i < ns; i++ {
		dist[i] = fg.ShortestDistances(i)
	}
	deg := make([]int, ns)
	for _, f := range n.Fibers {
		deg[f.A]++
		deg[f.B]++
	}
	order := make([]int, ns)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if deg[order[a]] != deg[order[b]] {
			return deg[order[a]] > deg[order[b]]
		}
		return order[a] < order[b]
	})

	for i := range n.Sites {
		n.Sites[i].Regenerators = 0
	}
	reachOK := func(chosen map[int]bool) bool {
		for s := 0; s < ns; s++ {
			visited := make([]bool, ns)
			queue := []int{s}
			visited[s] = true
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for w := 0; w < ns; w++ {
					if visited[w] || dist[v][w] > n.ReachKm {
						continue
					}
					visited[w] = true
					if chosen[w] {
						queue = append(queue, w)
					}
				}
			}
			for tgt := 0; tgt < ns; tgt++ {
				if !visited[tgt] {
					return false
				}
			}
		}
		return true
	}

	chosen := map[int]bool{}
	if !reachOK(chosen) {
		for _, cand := range order {
			chosen[cand] = true
			if reachOK(chosen) {
				break
			}
		}
	}
	for s := range chosen {
		n.Sites[s].Regenerators = poolSize
	}
}

// TestPrimTreeDifferential holds primTree to the cubic scan on random point
// sets of 2 to 300 sites — real-valued ones like ISP's, and ones on a coarse
// integer grid where equal distances, and so the tie order, are the common
// case.
func TestPrimTreeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 120; trial++ {
		sites := 2 + rng.Intn(299)
		if trial%3 != 0 {
			sites = 2 + rng.Intn(60)
		}
		grid := trial%2 == 1
		xs, ys := make([]float64, sites), make([]float64, sites)
		for i := range xs {
			if grid {
				xs[i], ys[i] = float64(rng.Intn(6)), float64(rng.Intn(6))
			} else {
				xs[i], ys[i] = rng.Float64()*4000, rng.Float64()*2500
			}
		}
		dist := func(a, b int) float64 { return math.Hypot(xs[a]-xs[b], ys[a]-ys[b]) }
		if got, want := primTree(sites, dist), referencePrimTree(sites, dist); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d sites, grid %v): tree differs from the cubic scan\n got %v\nwant %v", trial, sites, grid, got, want)
		}
	}
}

// TestPlaceRegeneratorsDifferential holds PlaceRegenerators to the retained
// all-pairs BFS across network sizes from 2 to 300 sites, optical reaches
// from one that needs a regenerator nearly everywhere to an infinite one, and
// pool sizes; plus a tie-heavy grid and a plant in two pieces, which no
// choice of sites can join at a finite reach, so every candidate is taken.
func TestPlaceRegeneratorsDifferential(t *testing.T) {
	partial := 0 // placements that took some sites but not all
	check := func(name string, n *Network, pool int) {
		t.Helper()
		want := *n
		want.Sites = append([]Site(nil), n.Sites...)
		referencePlaceRegenerators(&want, pool)
		n.PlaceRegenerators(pool)
		if !reflect.DeepEqual(n.Sites, want.Sites) {
			t.Fatalf("%s, pool %d: regenerator placement differs from the reference\n got %v\nwant %v", name, pool, n.Sites, want.Sites)
		}
		taken := 0
		for _, s := range n.Sites {
			if s.Regenerators > 0 {
				taken++
			}
		}
		if taken > 0 && taken < len(n.Sites) {
			partial++
		}
	}
	reaches := []float64{300, 700, 1200, 2000, 3500, 1e9, math.Inf(1)}
	pools := []int{1, 3, 8, 16}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		sites := 2 + rng.Intn(60)
		reach := reaches[rng.Intn(len(reaches))]
		if trial%4 == 0 {
			// Large networks at the reaches where few sites are needed: the
			// reference's final check is O(n² · chosen) per source.
			sites = 60 + rng.Intn(241)
			reach = reaches[3+rng.Intn(len(reaches)-3)]
		}
		n := ISP(sites, 8, rng.Int63())
		n.ReachKm = reach
		check("isp"+strconv.Itoa(sites)+"/reach"+strconv.FormatFloat(reach, 'g', -1, 64), n, pools[trial%len(pools)])
	}
	for _, reach := range []float64{300, 450, 1000} {
		g := squareGrid(7, 150)
		g.ReachKm = reach
		check("grid/reach"+strconv.FormatFloat(reach, 'g', -1, 64), g, 8)
	}
	for _, reach := range []float64{DefaultReachKm, math.Inf(1)} {
		// An infinite reach covers even the sites a cut-off piece cannot
		// reach, as the reference's +Inf distances do.
		split := squareGrid(4, 500)
		split.Fibers = split.Fibers[:len(split.Fibers)/2]
		split.ReachKm = reach
		check("split/reach"+strconv.FormatFloat(reach, 'g', -1, 64), split, 8)
	}
	if partial < 50 {
		t.Errorf("only %d placements took some sites but not all: the sweep barely exercises the search", partial)
	}
}

// squareGrid is a w x w mesh of equal-length fibers.
func squareGrid(w int, km float64) *Network {
	n := &Network{Name: "grid", ThetaGbps: DefaultThetaGbps, ReachKm: DefaultReachKm}
	for i := 0; i < w*w; i++ {
		n.Sites = append(n.Sites, Site{ID: i, Name: "G" + strconv.Itoa(i), RouterPorts: 4, HasRouter: true})
	}
	for y := 0; y < w; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				n.Fibers = append(n.Fibers, Fiber{ID: len(n.Fibers), A: y*w + x, B: y*w + x + 1, LengthKm: km, Wavelengths: DefaultWavelengths})
			}
			if y+1 < w {
				n.Fibers = append(n.Fibers, Fiber{ID: len(n.Fibers), A: y*w + x, B: (y+1)*w + x, LengthKm: km, Wavelengths: DefaultWavelengths})
			}
		}
	}
	return n
}

// refDiff, refTotalCircuits and refEqual are Diff, TotalCircuits and Equal
// as they stood before the sorted view became the LinkSet's enumeration:
// walks of the count map. TestViewMatchesScratchSort checks the view-based
// versions against them after every operation.
func refDiff(ls, o *LinkSet) int {
	d := 0
	seen := map[[2]int]bool{}
	for k, v := range ls.count {
		seen[k] = true
		d += abs(v - o.count[k])
	}
	for k, v := range o.count {
		if !seen[k] {
			d += v
		}
	}
	return d
}

func refTotalCircuits(ls *LinkSet) int {
	t := 0
	for _, c := range ls.count {
		t += c
	}
	return t
}

func refEqual(ls, o *LinkSet) bool {
	if ls.N != o.N || len(ls.count) != len(o.count) {
		return false
	}
	for k, v := range ls.count {
		if o.count[k] != v {
			return false
		}
	}
	return true
}
