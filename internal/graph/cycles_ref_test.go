package graph

import (
	"fmt"
	"sort"
)

// The reference implementation: ElementaryCycles and CyclesThroughAny as they
// stood before the enumeration became one streaming walk, kept verbatim apart
// from their names so the walk stays pinned to their exact output — the same
// cycles, in the same order, with the same error and partial result at the
// cap. Each start vertex builds its own subgraphs and SCC index, and every
// cycle is copied and sorted; that is the cost the walk removes.

func refElementaryCycles(g *Digraph, limit int) ([][]int, error) {
	if limit <= 0 {
		limit = DefaultCycleLimit
	}
	var (
		cycles  [][]int
		blocked = make([]bool, g.n)
		bmap    = make([][]int, g.n)
		stack   []int
		ubStack []int
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

	// circuit is Johnson's recursive CIRCUIT procedure converted to an
	// explicit frame stack: each frame holds the vertex, the next adjacency
	// index to examine, and whether a cycle was found below it.
	type frame struct {
		v     int
		next  int
		found bool
	}
	var frames []frame
	circuit := func(s int, sub *Digraph) error {
		frames = append(frames[:0], frame{v: s})
		stack = append(stack[:0], s)
		blocked[s] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			adj := sub.adj[f.v]
			if f.next < len(adj) {
				w := adj[f.next]
				f.next++
				if w == s {
					if len(cycles) >= limit {
						return fmt.Errorf("%w (limit %d)", ErrCycleLimit, limit)
					}
					cycles = append(cycles, append([]int(nil), stack...))
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
					bmap[w] = append(bmap[w], f.v)
				}
			}
			stack = stack[:len(stack)-1]
			found := f.found
			frames = frames[:len(frames)-1]
			if found && len(frames) > 0 {
				frames[len(frames)-1].found = true
			}
		}
		return nil
	}

	for s := 0; s < g.n; s++ {
		// Subgraph on vertices >= s, restricted to the SCC containing s.
		high := g.InducedSubgraph(func(v int) bool { return v >= s })
		_, idx := high.SCCIndex()
		sccOfS := idx[s]
		sub := high.InducedSubgraph(func(v int) bool { return idx[v] == sccOfS })
		if sub.OutDegree(s) == 0 {
			continue
		}
		for _, v := range refReachableSorted(sub, s) {
			blocked[v] = false
			bmap[v] = bmap[v][:0]
		}
		if err := circuit(s, sub); err != nil {
			refSortCycles(cycles)
			return cycles, err
		}
	}
	refSortCycles(cycles)
	return cycles, nil
}

// refReachableSorted returns the sorted list of vertices reachable from s.
func refReachableSorted(g *Digraph, s int) []int {
	set := g.ReachableFrom(s)
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func refSortCycles(cs [][]int) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// refCyclesThroughAny returns the elementary cycles that contain at least one
// vertex satisfying mark.
func refCyclesThroughAny(g *Digraph, mark func(v int) bool, limit int) ([][]int, error) {
	all, err := refElementaryCycles(g, limit)
	var out [][]int
	for _, c := range all {
		for _, v := range c {
			if mark(v) {
				out = append(out, c)
				break
			}
		}
	}
	return out, err
}
