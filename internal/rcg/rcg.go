// Package rcg implements the Right Continuation Graph of Section 4 of the
// paper and Theorem 4.2, the necessary-and-sufficient local condition for
// global deadlock-freedom of parameterized rings:
//
//	p(K) is deadlock-free outside I(K) for every K
//	    iff
//	the RCG induced over the local deadlocks of P_r has no directed cycle
//	containing an illegitimate local state.
//
// The package also constructs explicit witnesses: an illegitimate deadlock
// cycle of length n unrolls into a concrete global deadlock on any ring
// whose size is a multiple of n.
package rcg

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"paramring/internal/core"
	"paramring/internal/graph"
)

// RCG is the Right Continuation Graph of a protocol: a digraph over the
// local state codes of the representative process where an s-arc (s1, s2)
// means s2 is a possible local state of the right successor of a process in
// local state s1 (Definition 4.1).
type RCG struct {
	sys *core.System
	g   *graph.Digraph
}

// Build constructs the RCG of a compiled protocol. For a read window
// [lo, hi] of width w, s2 continues s1 iff the shared variables agree:
// decode(s1)[1:] == decode(s2)[:w-1]. For w == 1 there are no shared
// variables and every ordered pair is a continuation.
func Build(sys *core.System) *RCG {
	p := sys.Protocol()
	d := p.Domain()
	w := p.W()
	n := sys.N()
	g := graph.New(n)

	if w == 1 {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				g.AddEdge(u, v)
			}
		}
		return &RCG{sys: sys, g: g}
	}

	// Key of s1: decode(s1)[1:], i.e. s1 / d. Key of s2: decode(s2)[:w-1],
	// i.e. s2 mod d^{w-1}. Arc iff keys equal.
	prefixMod := 1
	for i := 0; i < w-1; i++ {
		prefixMod *= d
	}
	byPrefix := make([][]int, prefixMod)
	for s := 0; s < n; s++ {
		k := s % prefixMod
		byPrefix[k] = append(byPrefix[k], s)
	}
	for s := 0; s < n; s++ {
		suffix := s / d
		for _, t := range byPrefix[suffix] {
			g.AddEdge(s, t)
		}
	}
	return &RCG{sys: sys, g: g}
}

// Continues reports whether s2 is a right continuation of s1 directly from
// the definition (used to cross-check the optimized construction).
func Continues(p *core.Protocol, s1, s2 core.LocalState) bool {
	w := p.W()
	if w == 1 {
		return true
	}
	v1 := p.Decode(s1)
	v2 := p.Decode(s2)
	for i := 1; i < w; i++ {
		if v1[i] != v2[i-1] {
			return false
		}
	}
	return true
}

// System returns the compiled protocol the RCG was built from.
func (r *RCG) System() *core.System { return r.sys }

// Graph returns the underlying s-arc digraph over all local states.
func (r *RCG) Graph() *graph.Digraph { return r.g }

// DeadlockGraph returns the subgraph induced over local deadlock states
// (vertex ids remain local-state codes; non-deadlock vertices are isolated).
func (r *RCG) DeadlockGraph() *graph.Digraph {
	return r.g.InducedSubgraph(func(v int) bool { return r.sys.IsDeadlock[v] })
}

// DeadlockReport is the outcome of the Theorem 4.2 check.
type DeadlockReport struct {
	// Free is the verdict: true means p(K) has no global deadlock outside
	// I(K) for any K.
	Free bool
	// BadCycles lists the elementary cycles of the deadlock-induced RCG that
	// pass through an illegitimate local state, among the first cycleLimit
	// elementary cycles of that graph in Johnson's enumeration order (see
	// graph.VisitElementaryCycles), sorted by length and then
	// lexicographically. Each cycle of length n is a recipe for a global
	// deadlock on rings of size n (and multiples). When the cap cuts the
	// enumeration short, shorter bad cycles can lie beyond it, so the
	// shortest cycle listed need not be the smallest ring that deadlocks —
	// and the list can even be empty. Populated only when Free is false.
	BadCycles [][]core.LocalState
	// LocalDeadlocks and IllegitimateDeadlocks echo the protocol's local
	// deadlock analysis for reporting.
	LocalDeadlocks        []core.LocalState
	IllegitimateDeadlocks []core.LocalState
}

// CheckDeadlockFreedom applies Theorem 4.2. cycleLimit <= 0 selects the
// default. The verdict itself never fails (it needs only SCCs); enumeration
// of witness cycles can hit the limit, in which case the cycles found so far
// are returned along with the error — the Free verdict remains valid.
func (r *RCG) CheckDeadlockFreedom(cycleLimit int) (DeadlockReport, error) {
	rep := DeadlockReport{
		LocalDeadlocks:        r.sys.Deadlocks,
		IllegitimateDeadlocks: r.sys.IllegitimateDeadlocks(),
	}
	return r.badCycles(rep, r.DeadlockGraph(), cycleLimit)
}

// CheckDeadlockFreedomWithout applies Theorem 4.2 to the protocol obtained by
// resolving the given local deadlock states — i.e. granting each of them a
// recovery action so it is no longer a deadlock. Because the continuation
// relation depends only on the read-window shape (never on transitions), the
// revised protocol's RCG is this one, and its deadlock set is exactly
// r's deadlocks minus resolved. The returned report is therefore identical to
// compiling the revised protocol and running CheckDeadlockFreedom on it, at
// none of the cost — which lets a synthesis search decide Theorem 4.2 once
// per Resolve set instead of once per candidate assignment.
func (r *RCG) CheckDeadlockFreedomWithout(resolved []core.LocalState, cycleLimit int) (DeadlockReport, error) {
	drop := make(map[core.LocalState]bool, len(resolved))
	for _, s := range resolved {
		drop[s] = true
	}
	rep := DeadlockReport{}
	for _, s := range r.sys.Deadlocks {
		if !drop[s] {
			rep.LocalDeadlocks = append(rep.LocalDeadlocks, s)
		}
	}
	for _, s := range r.sys.IllegitimateDeadlocks() {
		if !drop[s] {
			rep.IllegitimateDeadlocks = append(rep.IllegitimateDeadlocks, s)
		}
	}
	dg := r.g.InducedSubgraph(func(v int) bool {
		return r.sys.IsDeadlock[v] && !drop[core.LocalState(v)]
	})
	return r.badCycles(rep, dg, cycleLimit)
}

// badCycles fills rep's verdict and witness cycles from the deadlock graph
// dg: the verdict from its SCCs, the cycles from Johnson's enumeration.
func (r *RCG) badCycles(rep DeadlockReport, dg *graph.Digraph, cycleLimit int) (DeadlockReport, error) {
	rep.Free = !dg.HasCycleThroughAny(r.illegitimate)
	if rep.Free {
		return rep, nil
	}
	cycles, err := dg.CyclesThroughAny(r.illegitimate, cycleLimit)
	rep.BadCycles = make([][]core.LocalState, len(cycles))
	for i, c := range cycles {
		states := make([]core.LocalState, len(c))
		for j, v := range c {
			states[j] = core.LocalState(v)
		}
		rep.BadCycles[i] = states
	}
	if err != nil {
		return rep, fmt.Errorf("rcg: witness enumeration incomplete: %w", err)
	}
	return rep, nil
}

func (r *RCG) illegitimate(v int) bool { return !r.sys.Legit[v] }

// BadCycleLengths applies Theorem 4.2 and returns, when the protocol is not
// free, the distinct lengths of the illegitimate cycles among the first
// cycleLimit elementary cycles of the deadlock-induced RCG, in increasing
// order: exactly CheckDeadlockFreedom(cycleLimit)'s Free and
// SortedBadCycleLengths, from one walk that copies no cycle. The cap is part
// of the definition (see DeadlockReport.BadCycles), so reaching it is no
// error: the verdict needs only SCCs. The only error is ctx's, once ctx is
// done during the walk.
func (r *RCG) BadCycleLengths(ctx context.Context, cycleLimit int) (free bool, lengths []int, err error) {
	dg := r.DeadlockGraph()
	if !dg.HasCycleThroughAny(r.illegitimate) {
		return true, nil, nil
	}
	seen := make([]bool, dg.N()+1)
	err = dg.VisitElementaryCycles(ctx, cycleLimit, func(c []int) {
		if !seen[len(c)] && slices.ContainsFunc(c, r.illegitimate) {
			seen[len(c)] = true
		}
	})
	// The cap ends the walk where the definition stops.
	if err != nil && !errors.Is(err, graph.ErrCycleLimit) {
		return false, nil, err
	}
	for l, ok := range seen {
		if ok {
			lengths = append(lengths, l)
		}
	}
	return false, lengths, nil
}

// UnrollCycle converts an RCG cycle over local deadlocks into a concrete
// global state for a ring of size k*len(cycle): process i takes the own
// value of cycle[i mod n]. By construction of the continuation relation, the
// local view of every process in the resulting ring is exactly its cycle
// state, so if all cycle states are local deadlocks the global state is a
// global deadlock (the Theorem 4.2 forward construction).
func (r *RCG) UnrollCycle(cycle []core.LocalState, k int) ([]int, error) {
	n := len(cycle)
	if n == 0 || k < 1 {
		return nil, fmt.Errorf("rcg: need non-empty cycle and k >= 1")
	}
	for i, s := range cycle {
		next := cycle[(i+1)%n]
		if !r.g.HasEdge(int(s), int(next)) {
			return nil, fmt.Errorf("rcg: %s -> %s is not an s-arc",
				r.sys.Protocol().FormatState(s), r.sys.Protocol().FormatState(next))
		}
	}
	vals := make([]int, 0, n*k)
	for rep := 0; rep < k; rep++ {
		for _, s := range cycle {
			vals = append(vals, r.sys.OwnValue(s))
		}
	}
	return vals, nil
}

// DeadlockRingSizes reports, for each K in [minK, maxK], whether the RCG
// predicts a global deadlock outside I on a ring of size exactly K: i.e.
// whether the deadlock-induced RCG has a closed walk of length K through an
// illegitimate vertex. (Example 4.3's protocol deadlocks exactly on ring
// sizes with such walks — multiples of 4 or 6.)
func (r *RCG) DeadlockRingSizes(minK, maxK int) map[int]bool {
	out := make(map[int]bool)
	if minK < 1 {
		minK = 1
	}
	dg := r.DeadlockGraph()
	n := dg.N()
	// reach[v] at step t = set of vertices reachable from the start vertex
	// in exactly t steps. Run once per illegitimate deadlock start.
	for _, start := range r.sys.IllegitimateDeadlocks() {
		cur := make([]bool, n)
		cur[int(start)] = true
		for t := 1; t <= maxK; t++ {
			next := make([]bool, n)
			for u := 0; u < n; u++ {
				if !cur[u] {
					continue
				}
				for _, v := range dg.Succ(u) {
					next[v] = true
				}
			}
			cur = next
			if t >= minK && cur[int(start)] {
				out[t] = true
			}
		}
	}
	for k := minK; k <= maxK; k++ {
		if !out[k] {
			out[k] = false
		}
	}
	return out
}

// FormatCycle renders a cycle with named local states, e.g.
// "<lls, lsr, srl, rll>".
func (r *RCG) FormatCycle(cycle []core.LocalState) string {
	parts := make([]string, len(cycle))
	for i, s := range cycle {
		parts[i] = r.sys.Protocol().FormatState(s)
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// SortedBadCycleLengths returns the distinct lengths of the report's bad
// cycles in increasing order — the fundamental deadlocking ring sizes.
func (rep DeadlockReport) SortedBadCycleLengths() []int {
	seen := map[int]bool{}
	for _, c := range rep.BadCycles {
		seen[len(c)] = true
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}
