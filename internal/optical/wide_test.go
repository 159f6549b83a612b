package optical

import (
	"math/rand"
	"slices"
	"testing"

	"owan/internal/bitset"
	"owan/internal/topology"
)

// TestWideMaskRoutingMatchesMaterialized is the regenerator-routing
// differential: provisioning with the reach masks (reachMaskW, one row per
// site at every network size) must produce exactly the effective topology
// the materialized transit-graph path does, on networks inside one word
// (ISP40, Internet2, InterDC-25) and past it (ISP80, ISP100, ISP200). The
// materialized reference is obtained by nil-ing the mask on a sibling State —
// the findRegenRoute branch falls through to building the regenerator graph.
func TestWideMaskRoutingMatchesMaterialized(t *testing.T) {
	nets := []*topology.Network{
		topology.ISP(40, 10, 1),
		topology.Internet2(8),
		topology.InterDC(25, 5, 8, 2),
		topology.ISP(100, 10, 1),
		topology.ISP(80, 8, 2),
		topology.ISP(200, 10, 1),
	}
	for ni, net := range nets {
		n := net.NumSites()
		mask := NewState(net)
		if want := bitset.Words(n) * n; len(mask.reachMaskW) != want {
			t.Fatalf("net %d: reach mask holds %d words, want %d for %d sites", ni, len(mask.reachMaskW), want, n)
		}
		plain := NewState(net)
		plain.reachMaskW = nil // force the materialized transit-graph path
		rng := rand.New(rand.NewSource(int64(ni)))
		cases := []*topology.LinkSet{topology.InitialTopology(net)}
		for c := 0; c < 6; c++ {
			ls := topology.NewLinkSet(n)
			for i := 0; i < 3+rng.Intn(3*n); i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				ls.Add(u, v, 1+rng.Intn(4))
			}
			cases = append(cases, ls)
		}
		for _, ls := range cases {
			want := slices.Clone(plain.ProvisionEffectiveEnum(ls))
			got := mask.ProvisionEffectiveEnum(ls)
			sameLinks(t, "mask vs materialized", want, got)
		}
	}
}

// TestWideStaticFeasibleMatchesBFS recomputes static regenerator
// reachability naively on a >64-site network and pins the bitset rows to it.
func TestWideStaticFeasibleMatchesBFS(t *testing.T) {
	net := topology.ISP(100, 10, 3)
	ns := net.NumSites()
	s := NewState(net)
	for u := 0; u < ns; u++ {
		seen := make([]bool, ns)
		seen[u] = true
		queue := []int{u}
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for v := 0; v < ns; v++ {
				if seen[v] || !s.inReach[x*ns+v] {
					continue
				}
				seen[v] = true
				if net.Sites[v].Regenerators > 0 {
					queue = append(queue, v)
				}
			}
		}
		for v := 0; v < ns; v++ {
			want := seen[v] && v != u
			if got := s.staticFeasible(u, v); got != want {
				t.Fatalf("staticFeasible(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}
