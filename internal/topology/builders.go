package topology

import (
	"math"
	"math/rand"
	"sort"
)

// Defaults for the optical constants (paper §2.1 and §5.1).
const (
	DefaultThetaGbps   = 10.0   // one wavelength / one router port
	DefaultWavelengths = 80     // φ per fiber pair
	DefaultReachKm     = 2000.0 // η
	DefaultRegenPool   = 8      // regenerators per concentration site
)

// internet2Site pairs a name with approximate great-circle neighbor
// distances; the 9-site Internet2 layer-1 footprint from Figure 1.
var internet2Names = []string{
	"SEAT", "LOSA", "SALT", "KANS", "HOUS", "CHIC", "ATLA", "WASH", "NEWY",
}

type fiberSpec struct {
	a, b string
	km   float64
}

var internet2Fibers = []fiberSpec{
	{"SEAT", "SALT", 1130},
	{"SEAT", "LOSA", 1540},
	{"LOSA", "SALT", 930},
	{"LOSA", "HOUS", 2200},
	{"SALT", "KANS", 1480},
	{"KANS", "HOUS", 1180},
	{"KANS", "CHIC", 660},
	{"HOUS", "ATLA", 1130},
	{"CHIC", "ATLA", 950},
	{"CHIC", "NEWY", 1150},
	{"ATLA", "WASH", 870},
	{"WASH", "NEWY", 330},
}

// Internet2 builds the 9-site Internet2 topology used by the paper's testbed
// (Figure 1). ports is the number of WAN-facing router ports per site (the
// testbed uses 15 transceivers; simulations typically use 8–16).
func Internet2(ports int) *Network {
	idx := map[string]int{}
	n := &Network{
		Name:      "internet2",
		ThetaGbps: DefaultThetaGbps,
		ReachKm:   DefaultReachKm,
	}
	for i, name := range internet2Names {
		idx[name] = i
		n.Sites = append(n.Sites, Site{ID: i, Name: name, RouterPorts: ports, HasRouter: true})
	}
	for i, f := range internet2Fibers {
		n.Fibers = append(n.Fibers, Fiber{
			ID: i, A: idx[f.a], B: idx[f.b], LengthKm: f.km, Wavelengths: DefaultWavelengths,
		})
	}
	n.PlaceRegenerators(DefaultRegenPool)
	return n
}

// ISP builds a synthetic ISP backbone of about 40 sites connected in an
// irregular mesh, the shape the paper describes for its ISP simulations. The
// construction is deterministic for a given seed: sites are scattered on a
// 4000x2500 km plane, connected by a spanning structure plus extra short
// edges until the average degree is ~3.2.
func ISP(sites, ports int, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	n := &Network{
		Name:      "isp",
		ThetaGbps: DefaultThetaGbps,
		ReachKm:   DefaultReachKm,
	}
	type pt struct{ x, y float64 }
	pos := make([]pt, sites)
	for i := 0; i < sites; i++ {
		pos[i] = pt{rng.Float64() * 4000, rng.Float64() * 2500}
		n.Sites = append(n.Sites, Site{ID: i, Name: ispName(i), RouterPorts: ports, HasRouter: true})
	}
	dist := func(a, b int) float64 {
		dx, dy := pos[a].x-pos[b].x, pos[a].y-pos[b].y
		d := dx*dx + dy*dy
		// Fiber routes are never straight lines; apply a 1.3 routing factor.
		return 1.3 * math.Sqrt(d)
	}
	fid := 0
	added := make([]bool, sites*sites) // [a*sites+b], a < b
	addFiber := func(a, b int) {
		key := min(a, b)*sites + max(a, b)
		if added[key] {
			return
		}
		added[key] = true
		n.Fibers = append(n.Fibers, Fiber{ID: fid, A: a, B: b, LengthKm: math.Max(50, dist(a, b)), Wavelengths: DefaultWavelengths})
		fid++
	}
	// Greedy spanning tree by nearest neighbor (Prim) for connectivity.
	for _, e := range primTree(sites, dist) {
		addFiber(e[0], e[1])
	}
	// Add short extra edges until average degree reaches ~3.2.
	type cand struct {
		a, b int
		d    float64
	}
	var cands []cand
	for i := 0; i < sites; i++ {
		for j := i + 1; j < sites; j++ {
			if !added[i*sites+j] {
				cands = append(cands, cand{i, j, dist(i, j)})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	target := int(3.2 * float64(sites) / 2)
	for _, c := range cands {
		if len(n.Fibers) >= target {
			break
		}
		addFiber(c.a, c.b)
	}
	n.PlaceRegenerators(DefaultRegenPool)
	return n
}

// primTree returns the spanning tree Prim's algorithm grows from site 0 over
// the complete graph on sites 0..sites-1 weighted by dist, as (tree end, new
// site) edges in the order it adds them. Each step adds the shortest edge
// from the tree to a site outside it; ties go to the smallest tree end, then
// the smallest new site. Every site outside the tree keeps its best edge into
// the tree, so a step is one scan of the sites: O(n²) distance calls in all.
func primTree(sites int, dist func(a, b int) float64) [][2]int {
	inTree := make([]bool, sites)
	inTree[0] = true
	bestD := make([]float64, sites) // shortest edge from the tree, for a site outside it
	bestI := make([]int, sites)     // its tree end, the smallest on a tie
	for j := 1; j < sites; j++ {
		bestD[j] = dist(0, j)
	}
	edges := make([][2]int, 0, sites-1)
	for count := 1; count < sites; count++ {
		bj := -1
		for j := 0; j < sites; j++ {
			if !inTree[j] && (bj < 0 || bestD[j] < bestD[bj] || bestD[j] == bestD[bj] && bestI[j] < bestI[bj]) {
				bj = j
			}
		}
		inTree[bj] = true
		edges = append(edges, [2]int{bestI[bj], bj})
		for j := 0; j < sites; j++ {
			if inTree[j] {
				continue
			}
			if d := dist(bj, j); d < bestD[j] || d == bestD[j] && bj < bestI[j] {
				bestD[j], bestI[j] = d, bj
			}
		}
	}
	return edges
}

// InterDC builds the inter-datacenter topology the paper describes: a few
// "super core" sites connected in a ring, each smaller site dual-homed to
// two super cores. sites includes the superCores.
func InterDC(sites, superCores, ports int, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	n := &Network{
		Name:      "interdc",
		ThetaGbps: DefaultThetaGbps,
		ReachKm:   DefaultReachKm,
	}
	for i := 0; i < sites; i++ {
		name := dcName(i, superCores)
		p := ports
		if i < superCores {
			p = ports * 3 // super cores have bigger routers
		}
		n.Sites = append(n.Sites, Site{ID: i, Name: name, RouterPorts: p, HasRouter: true})
	}
	fid := 0
	addFiber := func(a, b int, km float64) {
		n.Fibers = append(n.Fibers, Fiber{ID: fid, A: a, B: b, LengthKm: km, Wavelengths: DefaultWavelengths})
		fid++
	}
	// Super-core ring.
	for i := 0; i < superCores; i++ {
		addFiber(i, (i+1)%superCores, 800+rng.Float64()*800)
	}
	// Each leaf dual-homed to two consecutive super cores.
	for i := superCores; i < sites; i++ {
		h := rng.Intn(superCores)
		addFiber(i, h, 200+rng.Float64()*600)
		addFiber(i, (h+1)%superCores, 200+rng.Float64()*600)
	}
	n.PlaceRegenerators(DefaultRegenPool)
	return n
}

// Square builds the 4-router example network from the paper's §2.2
// motivating example: R0..R3 in a cycle, 2 ports each, one wavelength of 10
// units per port.
func Square() *Network {
	n := &Network{
		Name:      "square",
		ThetaGbps: 10,
		ReachKm:   DefaultReachKm,
	}
	for i := 0; i < 4; i++ {
		n.Sites = append(n.Sites, Site{ID: i, Name: squareNames[i], RouterPorts: 2, HasRouter: true})
	}
	fibers := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	for i, f := range fibers {
		n.Fibers = append(n.Fibers, Fiber{ID: i, A: f[0], B: f[1], LengthKm: 500, Wavelengths: 4})
	}
	n.PlaceRegenerators(DefaultRegenPool)
	return n
}

var squareNames = [4]string{"R0", "R1", "R2", "R3"}

// InitialTopology builds a network-layer starting topology by spreading each
// site's router ports across its fiber-adjacent neighbors round-robin. This
// mirrors operational practice: the IP topology initially follows the fiber
// map. The result respects per-site port budgets.
func InitialTopology(n *Network) *LinkSet {
	ls := NewLinkSet(len(n.Sites))
	free := make([]int, len(n.Sites))
	for i, s := range n.Sites {
		free[i] = s.RouterPorts
	}
	neighbors := make([][]int, len(n.Sites))
	for _, f := range n.Fibers {
		neighbors[f.A] = append(neighbors[f.A], f.B)
		neighbors[f.B] = append(neighbors[f.B], f.A)
	}
	for i := range neighbors {
		sort.Ints(neighbors[i])
	}
	// Phase 1: one circuit per fiber adjacency (in fiber order) so the
	// network layer starts out mirroring the fiber map and is connected.
	for _, f := range n.Fibers {
		if free[f.A] > 0 && free[f.B] > 0 && ls.Get(f.A, f.B) == 0 {
			ls.Add(f.A, f.B, 1)
			free[f.A]--
			free[f.B]--
		}
	}
	// Phase 2: repeatedly sweep sites, adding one circuit to the next
	// neighbor with a free port, until no more circuits can be placed.
	next := make([]int, len(n.Sites))
	progress := true
	for progress {
		progress = false
		for v := 0; v < len(n.Sites); v++ {
			if free[v] == 0 || len(neighbors[v]) == 0 {
				continue
			}
			for try := 0; try < len(neighbors[v]); try++ {
				w := neighbors[v][next[v]%len(neighbors[v])]
				next[v]++
				if w != v && free[w] > 0 {
					ls.Add(v, w, 1)
					free[v]--
					free[w]--
					progress = true
					break
				}
			}
		}
	}
	return ls
}

func ispName(i int) string {
	return "POP" + itoa(i)
}

func dcName(i, superCores int) string {
	if i < superCores {
		return "CORE" + itoa(i)
	}
	return "DC" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// RandomTopology builds a random network-layer topology respecting every
// site's port budget via the configuration model: each port becomes a stub,
// stubs are shuffled and paired. Self-pairs are skipped. Used by the
// cold-start ablation of the annealing search.
func RandomTopology(n *Network, seed int64) *LinkSet {
	rng := rand.New(rand.NewSource(seed))
	var stubs []int
	for i, s := range n.Sites {
		for p := 0; p < s.RouterPorts; p++ {
			stubs = append(stubs, i)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	ls := NewLinkSet(len(n.Sites))
	for i := 0; i+1 < len(stubs); i += 2 {
		if stubs[i] != stubs[i+1] {
			ls.Add(stubs[i], stubs[i+1], 1)
		}
	}
	return ls
}
