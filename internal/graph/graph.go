// Package graph provides the graph substrate used throughout Owan: weighted
// multigraphs, shortest paths (plain and node-weighted), Yen's k-shortest
// paths, max-flow, connectivity helpers, and a Blossom maximum-matching
// implementation for general graphs.
//
// Vertices are dense integer ids in [0, N). Edges are directed internally;
// undirected graphs insert both arcs. Multi-edges are supported because the
// network layer of a WAN routinely has parallel links (several circuits
// between the same router pair).
package graph

import "fmt"

// Edge is a directed arc with a weight (distance, cost) and an application
// payload id (for example, the index of the link it represents).
type Edge struct {
	From, To int
	Weight   float64
	ID       int
}

// Graph is a directed weighted multigraph over vertices [0, N).
type Graph struct {
	n   int
	adj [][]Edge
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts a directed arc.
func (g *Graph) AddEdge(from, to int, w float64, id int) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", from, to, g.n))
	}
	g.adj[from] = append(g.adj[from], Edge{From: from, To: to, Weight: w, ID: id})
}

// AddUndirected inserts both arcs of an undirected edge.
func (g *Graph) AddUndirected(u, v int, w float64, id int) {
	g.AddEdge(u, v, w, id)
	g.AddEdge(v, u, w, id)
}

// Path is a sequence of edges from a source to a destination.
type Path struct {
	Edges  []Edge
	Weight float64
}

// Vertices returns the vertex sequence of the path, starting at the source.
// A nil path returns nil; an empty path (src==dst) returns nil as well
// because the source is unknown.
func (p *Path) Vertices() []int {
	if p == nil || len(p.Edges) == 0 {
		return nil
	}
	vs := make([]int, 0, len(p.Edges)+1)
	vs = append(vs, p.Edges[0].From)
	for _, e := range p.Edges {
		vs = append(vs, e.To)
	}
	return vs
}

// item is a binary-heap entry for Dijkstra.
type item struct {
	v    int
	dist float64
}

type heap []item

func (h *heap) push(it item) {
	a := append(*h, it)
	*h = a
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if a[parent].dist <= it.dist {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = it
}

// pop removes the minimum. The last entry sinks from the root through a
// hole — children move up, it is written once — which makes the comparisons,
// and leaves the array, exactly as swapping it down level by level would:
// which of several equal distances surfaces first is part of every search's
// tie order.
func (h *heap) pop() item {
	old := *h
	top := old[0]
	n := len(old) - 1
	x := old[n]
	old = old[:n]
	*h = old
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c, d := i, x.dist
		if old[l].dist < d {
			c, d = l, old[l].dist
		}
		if r := l + 1; r < n && old[r].dist < d {
			c = r
		}
		if c == i {
			break
		}
		old[i] = old[c]
		i = c
	}
	if n > 0 {
		old[i] = x
	}
	return top
}

// ShortestPath runs Dijkstra from src to dst using edge weights. It returns
// nil if dst is unreachable. Ties are broken by insertion order, which keeps
// results deterministic for a deterministically built graph. Repeated
// callers should hold a Scratch and use ShortestPathScratch.
func (g *Graph) ShortestPath(src, dst int) *Path {
	var sc Scratch
	return g.ShortestPathScratch(&sc, src, dst)
}

// ShortestDistances runs Dijkstra from src and returns the distance to every
// vertex (Inf for unreachable vertices).
func (g *Graph) ShortestDistances(src int) []float64 {
	var t Tree
	g.ShortestTree(&t, src)
	dist := make([]float64, g.n)
	for v := range dist {
		dist[v] = t.Dist(v)
	}
	return dist
}

// BFS returns hop distances from src (-1 for unreachable).
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[v] {
			if dist[e.To] < 0 {
				dist[e.To] = dist[v] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

// Connected reports whether every vertex is reachable from vertex 0
// (treating arcs as traversable in their stored direction; undirected
// graphs store both arcs so this is full connectivity for them).
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	d := g.BFS(0)
	for _, x := range d {
		if x < 0 {
			return false
		}
	}
	return true
}

// KShortestPaths returns up to k loopless shortest paths from src to dst in
// nondecreasing weight order (Yen's algorithm). Repeated callers should
// hold a Scratch and use KShortestPathsScratch.
func (g *Graph) KShortestPaths(src, dst, k int) []*Path {
	var sc Scratch
	return g.KShortestPathsScratch(&sc, src, dst, k)
}

func reverse(e []Edge) {
	for i, j := 0, len(e)-1; i < j; i, j = i+1, j-1 {
		e[i], e[j] = e[j], e[i]
	}
}
