// Package graph provides the directed-graph algorithms that underpin the
// local-reasoning machinery of the paper "Local Reasoning for Global
// Convergence of Parameterized Rings" (Farahat & Ebnenasir, ICDCS 2012):
// strongly connected components, elementary-cycle enumeration, cycles through
// designated vertices, minimal feedback (hitting) sets, reachability and DOT
// export.
//
// Vertices are dense integers in [0, N). All algorithms are deterministic:
// adjacency lists are kept sorted so repeated runs produce identical output,
// which the figure-regeneration harness relies on.
package graph

import (
	"fmt"
	"sort"
)

// Digraph is a mutable directed graph over vertices 0..N-1. The zero value is
// an empty graph with no vertices; use New to create one with a fixed vertex
// count.
type Digraph struct {
	n   int
	m   int
	adj [][]int
}

// New returns an empty digraph with n vertices and no edges.
func New(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Digraph{n: n, adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.n }

// M returns the number of edges.
func (g *Digraph) M() int { return g.m }

// AddEdge inserts the edge u->v. Duplicate insertions are ignored. Self-loops
// are permitted (the RCG of 2-coloring, for example, has s-arc self-loops).
func (g *Digraph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	// Insert keeping adjacency sorted for deterministic iteration; a target
	// already at the insertion point is a duplicate.
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	if i < len(a) && a[i] == v {
		return
	}
	g.m++
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = v
	g.adj[u] = a
}

// HasEdge reports whether the edge u->v exists.
func (g *Digraph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// Succ returns the sorted successor list of u. The returned slice is owned by
// the graph and must not be mutated.
func (g *Digraph) Succ(u int) []int {
	g.check(u)
	return g.adj[u]
}

// Edges returns all edges in deterministic (source, then target) order.
func (g *Digraph) Edges() [][2]int {
	out := make([][2]int, 0, g.M())
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// OutDegree returns the out-degree of u.
func (g *Digraph) OutDegree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// InDegrees returns the in-degree of every vertex.
func (g *Digraph) InDegrees() []int {
	in := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			in[v]++
		}
	}
	return in
}

// Clone returns a deep copy of g.
func (g *Digraph) Clone() *Digraph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			c.AddEdge(u, v)
		}
	}
	return c
}

// InducedSubgraph returns the subgraph induced over keep (a vertex predicate)
// while preserving vertex identities: vertices outside keep lose all incident
// edges but remain as isolated vertices, so vertex ids stay meaningful to the
// caller (local-state codes, in the RCG use case).
func (g *Digraph) InducedSubgraph(keep func(v int) bool) *Digraph {
	s := New(g.n)
	for u := 0; u < g.n; u++ {
		if !keep(u) {
			continue
		}
		for _, v := range g.adj[u] {
			if keep(v) {
				s.AddEdge(u, v)
			}
		}
	}
	return s
}

// RemoveVertices returns a copy of g with all edges incident to any vertex in
// drop removed (vertices remain, isolated).
func (g *Digraph) RemoveVertices(drop map[int]bool) *Digraph {
	return g.InducedSubgraph(func(v int) bool { return !drop[v] })
}

// Transpose returns the edge-reversed graph.
func (g *Digraph) Transpose() *Digraph {
	t := New(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			t.AddEdge(v, u)
		}
	}
	return t
}

// ReachableFrom returns the set of vertices reachable from any seed
// (including the seeds themselves).
func (g *Digraph) ReachableFrom(seeds ...int) map[int]bool {
	seen := make(map[int]bool, len(seeds))
	stack := append([]int(nil), seeds...)
	for _, s := range seeds {
		g.check(s)
		seen[s] = true
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// HasPath reports whether v is reachable from u (true when u == v).
func (g *Digraph) HasPath(u, v int) bool {
	return g.ReachableFrom(u)[v]
}

func (g *Digraph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}
