package graph

import (
	"context"
	"errors"
	"fmt"
	"slices"
)

// ErrCycleLimit is returned (wrapped) when elementary-cycle enumeration
// exceeds its configured cap. Callers that use cycle enumeration to *prove*
// the absence of bad structures must treat this as "unknown", never as proof.
var ErrCycleLimit = errors.New("graph: elementary cycle limit exceeded")

// DefaultCycleLimit bounds ElementaryCycles output. The local state spaces of
// the paper's protocols are tiny (<= 27 vertices), so this is generous; it
// exists to keep adversarial/property-test inputs from exploding.
const DefaultCycleLimit = 200000

// pollEvery is how many steps of a cycle walk pass between two polls of
// its context.
const pollEvery = 256

// VisitElementaryCycles enumerates the elementary (simple) directed cycles of
// g with Johnson's algorithm and hands each one to visit as it is found. A
// cycle is a vertex sequence c[0..k-1] with implicit closing edge c[k-1]->c[0],
// rotated so that c[0] is its smallest vertex; a self-loop is a one-vertex
// cycle. Cycles arrive grouped by c[0] in increasing order, and within a group
// in depth-first order over the sorted adjacency lists, so every run yields
// the same sequence.
//
// The slice visit receives is the walk's live stack: it is valid only during
// the call and must not be modified. A caller that keeps a cycle copies it.
//
// Every cycle counts against limit (limit <= 0 selects DefaultCycleLimit):
// visit sees at most the first limit cycles, and finding one more ends the
// walk with a wrapped ErrCycleLimit.
//
// For each start vertex s the walk is confined to s's strongly connected
// component among the vertices >= s, found by a forward and a backward reach
// over g's own adjacency; no subgraph is built, and every buffer is allocated
// once per call. Both the circuit walk and the unblock cascade run on explicit
// heap stacks, never on the call stack, so adversarially deep graphs (a single
// cycle through every vertex, say) cannot overflow the goroutine stack.
//
// The walk polls ctx once every pollEvery start vertices and once every
// pollEvery circuit steps, and ends with ctx.Err() once ctx is done.
func (g *Digraph) VisitElementaryCycles(ctx context.Context, limit int, visit func(cycle []int)) error {
	if limit <= 0 {
		limit = DefaultCycleLimit
	}
	steps := 0
	// stopped reports ctx's error on every pollEvery-th step: a step of the
	// walk costs nanoseconds, a poll tens of them.
	stopped := func() error {
		steps++
		if steps%pollEvery != 0 {
			return nil
		}
		return ctx.Err()
	}
	n := g.n
	// Reverse adjacency in CSR form: the predecessors of v are
	// pred[predOff[v]:predOff[v+1]].
	predOff := make([]int, n+1)
	for u := 0; u < n; u++ {
		for _, v := range g.adj[u] {
			predOff[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		predOff[v+1] += predOff[v]
	}
	pred := make([]int, predOff[n])
	fill := slices.Clone(predOff[:n])
	for u := 0; u < n; u++ {
		for _, v := range g.adj[u] {
			pred[fill[v]] = u
			fill[v]++
		}
	}

	// mark[v] is 2s+1 once the forward reach of round s has seen v, and 2s+2
	// once v is known to lie in s's component; earlier rounds' values are
	// smaller, so nothing is cleared between rounds.
	type frame struct {
		v     int
		next  int
		found bool
	}
	var (
		mark    = make([]int, n)
		blocked = make([]bool, n)
		bmap    = make([][]int, n)
		comp    []int
		work    []int
		stack   []int
		ubStack []int
		frames  []frame
		found   int
	)

	// unblock clears the blocked flag of u and cascades through the b-map
	// chains. Visiting a vertex means unblocking it and clearing its b-list;
	// the visited set is plain reachability over blocked vertices, so the
	// iterative traversal reproduces the recursive cascade exactly.
	unblock := func(u int) {
		blocked[u] = false
		ubStack = append(ubStack[:0], bmap[u]...)
		bmap[u] = bmap[u][:0]
		for len(ubStack) > 0 {
			w := ubStack[len(ubStack)-1]
			ubStack = ubStack[:len(ubStack)-1]
			if !blocked[w] {
				continue
			}
			blocked[w] = false
			ubStack = append(ubStack, bmap[w]...)
			bmap[w] = bmap[w][:0]
		}
	}

	for s := 0; s < n; s++ {
		if err := stopped(); err != nil {
			return err
		}
		reached, in := 2*s+1, 2*s+2
		// Forward reach from s over the vertices >= s.
		mark[s] = reached
		work = append(work[:0], s)
		for len(work) > 0 {
			u := work[len(work)-1]
			work = work[:len(work)-1]
			for _, w := range g.adj[u] {
				if w > s && mark[w] < reached {
					mark[w] = reached
					work = append(work, w)
				}
			}
		}
		// Backward reach from s over the forward-reached vertices: a vertex
		// that reaches s through them is exactly a member of s's component.
		mark[s] = in
		comp = append(comp[:0], s)
		work = append(work, s)
		for len(work) > 0 {
			u := work[len(work)-1]
			work = work[:len(work)-1]
			for _, w := range pred[predOff[u]:predOff[u+1]] {
				if mark[w] == reached {
					mark[w] = in
					comp = append(comp, w)
					work = append(work, w)
				}
			}
		}
		if len(comp) == 1 && !g.HasEdge(s, s) {
			continue
		}
		for _, v := range comp {
			blocked[v] = false
			bmap[v] = bmap[v][:0]
		}

		// Johnson's recursive CIRCUIT procedure on an explicit frame stack:
		// each frame holds the vertex, the next adjacency index to examine,
		// and whether a cycle was found below it. Edges leaving the
		// component are skipped.
		frames = append(frames[:0], frame{v: s})
		stack = append(stack[:0], s)
		blocked[s] = true
		for len(frames) > 0 {
			if err := stopped(); err != nil {
				return err
			}
			f := &frames[len(frames)-1]
			adj := g.adj[f.v]
			if f.next < len(adj) {
				w := adj[f.next]
				f.next++
				if mark[w] != in {
					continue
				}
				if w == s {
					if found == limit {
						return fmt.Errorf("%w (limit %d)", ErrCycleLimit, limit)
					}
					found++
					visit(stack)
					f.found = true
					continue
				}
				if !blocked[w] {
					frames = append(frames, frame{v: w})
					stack = append(stack, w)
					blocked[w] = true
				}
				continue
			}
			// Post-order: the frame is exhausted.
			if f.found {
				unblock(f.v)
			} else {
				for _, w := range adj {
					if mark[w] == in {
						bmap[w] = append(bmap[w], f.v)
					}
				}
			}
			stack = stack[:len(stack)-1]
			done := f.found
			frames = frames[:len(frames)-1]
			if done && len(frames) > 0 {
				frames[len(frames)-1].found = true
			}
		}
	}
	return nil
}

// ElementaryCycles returns every elementary cycle of g (see
// VisitElementaryCycles for their form), sorted by length and then
// lexicographically. If more than limit cycles exist, a wrapped ErrCycleLimit
// is returned along with the first limit cycles of the walk, sorted the same
// way. limit <= 0 selects DefaultCycleLimit.
func (g *Digraph) ElementaryCycles(limit int) ([][]int, error) {
	var cycles [][]int
	err := g.VisitElementaryCycles(context.Background(), limit, func(c []int) {
		cycles = append(cycles, slices.Clone(c))
	})
	sortCycles(cycles)
	return cycles, err
}

// sortCycles orders cycles by length, then lexicographically. The order is
// total over distinct cycles, so sorting a filtered list gives the filtered
// sorted list.
func sortCycles(cs [][]int) {
	slices.SortFunc(cs, func(a, b []int) int {
		if len(a) != len(b) {
			return len(a) - len(b)
		}
		return slices.Compare(a, b)
	})
}

// CyclesThroughAny returns the elementary cycles that contain at least one
// vertex satisfying mark, in ElementaryCycles' order. Every cycle, marked or
// not, counts against limit, exactly as in ElementaryCycles; at the cap the
// marked cycles among the first limit are returned with the error.
func (g *Digraph) CyclesThroughAny(mark func(v int) bool, limit int) ([][]int, error) {
	var out [][]int
	err := g.VisitElementaryCycles(context.Background(), limit, func(c []int) {
		if slices.ContainsFunc(c, mark) {
			out = append(out, slices.Clone(c))
		}
	})
	sortCycles(out)
	return out, err
}

// HasCycleThroughAny reports whether some directed cycle passes through a
// vertex satisfying mark. This needs no cycle enumeration: a vertex lies on a
// cycle iff it belongs to a nontrivial SCC (or carries a self-loop).
func (g *Digraph) HasCycleThroughAny(mark func(v int) bool) bool {
	on := g.VertexOnCycle()
	for v := 0; v < g.n; v++ {
		if on[v] && mark(v) {
			return true
		}
	}
	return false
}

// CycleEdges converts a cycle vertex sequence into its edge list, including
// the closing edge.
func CycleEdges(cycle []int) [][2]int {
	edges := make([][2]int, 0, len(cycle))
	for i, u := range cycle {
		v := cycle[(i+1)%len(cycle)]
		edges = append(edges, [2]int{u, v})
	}
	return edges
}
