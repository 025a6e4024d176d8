package ltg

import (
	"context"
	"fmt"

	"paramring/internal/core"
	"paramring/internal/graph"
)

// Verdict is the outcome of the Theorem 5.14 check.
type Verdict int

const (
	// VerdictFree proves livelock-freedom for every ring size K (for
	// window [-1,0]; for bidirectional rings it proves freedom from
	// contiguous livelocks only — see Report.ContiguousOnly). On a wider
	// left-only window the search never returns it (see TheoremScope).
	VerdictFree Verdict = iota + 1
	// VerdictPotentialLivelock means a contiguous trail satisfying the
	// conditions of Theorem 5.14 exists. Because the theorem is sufficient
	// but not necessary, the trail may be spurious (no real livelock); the
	// paper's sum-not-two {t21,t10,t02} set is the canonical example.
	VerdictPotentialLivelock
	// VerdictUnknown means search limits were exceeded, or the search
	// found no trail on a window Theorem 5.14 does not cover; soundness
	// demands the caller treat this as "possibly livelocking".
	VerdictUnknown
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictFree:
		return "livelock-free"
	case VerdictPotentialLivelock:
		return "potential-livelock"
	case VerdictUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// TrailWitness describes a contiguous trail satisfying Theorem 5.14's
// conditions.
type TrailWitness struct {
	// TArcs is the trail's t-arc set (a pseudo-livelock).
	TArcs []core.LocalTransition
	// Cycle is one closed walk in the composite graph, as the cyclic
	// sequence of t-arc source states.
	Cycle []core.LocalState
	// IllegitimateStates are the illegitimate local states the trail visits.
	IllegitimateStates []core.LocalState
}

// Report is the result of CheckLivelockFreedom.
type Report struct {
	Verdict Verdict
	// Witness is set for VerdictPotentialLivelock.
	Witness *TrailWitness
	// ContiguousOnly is true when the protocol is not unidirectional: the
	// Free verdict then only rules out contiguous livelocks (the paper's
	// remark after Theorem 5.14).
	ContiguousOnly bool
	// SelfDisabled is true when the protocol was first rewritten by the
	// Section 5 transformation to satisfy Assumption 2.
	SelfDisabled bool
	// SubsetsChecked counts candidate t-arc subsets examined.
	SubsetsChecked int
	// Reason is a human-readable explanation of the verdict.
	Reason string
}

// CheckOptions tunes CheckLivelockFreedom.
type CheckOptions struct {
	// MaxTArcs bounds the exact subset search (2^MaxTArcs subsets). Above
	// it the checker falls back to a coarse-but-sound test. <= 0 selects 16.
	MaxTArcs int
	// Skeleton, when non-nil and of the same shape as the protocol under
	// check (see LTG.SameShape), donates its s-arc RCG so the check skips
	// rebuilding the continuation relation — corpus.FamilyMemos shares one
	// skeleton across same-shape protocols this way. A skeleton of a
	// different shape is ignored (the check falls back to building its own
	// graph), so passing one is always sound. No serving path sets it;
	// only e2ebench's trace replay does, and the field goes with ROADMAP
	// item 6's benchmark change.
	Skeleton *LTG
	// Memo, when non-nil, caches Theorem 5.14 subset verdicts across
	// checks. It is consulted only when Skeleton is set and shape-
	// compatible: verdicts are pure functions of (shape, t-arc subset), so
	// a memo is only transferable between protocols that share the shape
	// the skeleton vouches for. The verdict, witness, and subset count are
	// identical with or without it (see FindTrailSubset). Like Skeleton,
	// only e2ebench's trace replay sets it; synthesis passes its own
	// ltg.Memo to FindTrailSubset directly.
	Memo *Memo
}

// TheoremScope returns nil when Theorem 5.14's livelock-freedom proof
// covers p's window, and the reason it does not otherwise. The paper's
// Section 5 lemmas are about a process that reads x_{r-1} and x_r. On a
// wider left-only window [lo,0], lo <= -2, P_{r+2} also reads P_r's write:
// Lemma 5.2 (an action enables only the right neighbour) fails, and so
// does the reduction to contiguous livelocks built on it. A search that
// finds no trail there proves nothing, while a trail it finds and
// confirms is still a real livelock. Bidirectional windows keep their
// contiguous-only proof (Report.ContiguousOnly).
func TheoremScope(p *core.Protocol) error {
	if lo, hi := p.Window(); hi == 0 && lo < -1 {
		return fmt.Errorf("Theorem 5.14 proves livelock-freedom on left-only window [-1,0], not on [%d,0], where a write is read beyond the right neighbour and Lemma 5.2 fails", lo)
	}
	return nil
}

// free records a Free verdict that rests on Theorem 5.14, or withholds it
// as Unknown, with the reason, on a window TheoremScope excludes.
func free(p *core.Protocol, rep Report, reason string) Report {
	rep.Verdict, rep.Reason = VerdictFree, reason
	if err := TheoremScope(p); err != nil {
		rep.Verdict, rep.Reason = VerdictUnknown, reason+", but "+err.Error()
	}
	return rep
}

// CheckLivelockFreedom applies the contrapositive of Theorem 5.14: it
// searches for a contiguous trail whose t-arcs form a pseudo-livelock and
// which visits an illegitimate local state. No such trail => livelock-free
// for every K (contiguous-livelock-free for bidirectional rings).
//
// The protocol MUST be self-disabling (Assumption 2 of the paper's Section
// 5); otherwise an error is returned. The paper suggests transforming
// self-enabling protocols first, but — as this reproduction discovered — the
// transformation does not preserve livelocks: a protocol can livelock while
// its self-disabled form does not (the chain-collapse destroys mid-chain
// states that the livelock depends on, and non-self-disabling protocols
// admit collisions that invalidate Lemma 5.5). Verdicts for a transformed
// protocol therefore apply to the transformed protocol only; use
// CheckLivelockFreedomTransformed when that is what you want.
func CheckLivelockFreedom(p *core.Protocol, opts CheckOptions) (Report, error) {
	return CheckLivelockFreedomCtx(context.Background(), p, opts)
}

// CheckLivelockFreedomCtx is CheckLivelockFreedom that gives up with
// ctx's error once ctx is done: the coarse check polls ctx before every
// t-arc, the exact search every pollEvery subsets.
func CheckLivelockFreedomCtx(ctx context.Context, p *core.Protocol, opts CheckOptions) (Report, error) {
	if opts.MaxTArcs <= 0 {
		opts.MaxTArcs = 16
	}
	var rep Report
	rep.ContiguousOnly = !p.Unidirectional()

	sys := p.Compile()
	if !sys.IsSelfDisabling() {
		return rep, fmt.Errorf("ltg: protocol %q has self-enabling transitions (e.g. %s); Theorem 5.14 requires self-disabling actions — transform explicitly with CheckLivelockFreedomTransformed, whose verdict applies to the transformed protocol",
			p.Name(), sys.FormatTransition(sys.SelfEnabling()[0]))
	}
	// A shape-compatible skeleton donates its s-arcs (and unlocks the shared
	// memo); anything else rebuilds from scratch, so a stale or mismatched
	// skeleton can never change a verdict.
	var l *LTG
	var memo *Memo
	if opts.Skeleton != nil && opts.Skeleton.SameShape(sys) {
		l = BuildFrom(sys, opts.Skeleton.RCG())
		memo = opts.Memo
	} else {
		l = Build(sys)
	}

	tarcs := sys.Trans
	if len(tarcs) == 0 {
		rep.Verdict = VerdictFree
		rep.Reason = "no local transitions, hence no livelocks"
		return rep, nil
	}

	if len(tarcs) > opts.MaxTArcs {
		return l.coarseCheck(ctx, rep, tarcs)
	}

	// Exact subset search: a trail's t-arc set is some subset S'. For each
	// subset that forms a pseudo-livelock, test whether every t-arc of S'
	// can participate in a closed composite walk and whether the trail
	// visits an illegitimate state.
	w, checked, err := l.findTrailSubset(ctx, tarcs, -1, memo)
	if err != nil {
		return rep, err
	}
	rep.SubsetsChecked = checked
	if w != nil {
		rep.Verdict = VerdictPotentialLivelock
		rep.Witness = w
		rep.Reason = TrailReason(sys, w)
		return rep, nil
	}
	if rep.ContiguousOnly {
		return free(p, rep, "no pseudo-livelocking t-arc subset forms a contiguous trail (bidirectional: contiguous livelocks only)"), nil
	}
	return free(p, rep, "no pseudo-livelocking t-arc subset forms a contiguous trail (Theorem 5.14)"), nil
}

// CheckLivelockFreedomTransformed first applies the paper's Section 5
// transformation (core.Protocol.SelfDisable) when needed, then checks the
// transformed protocol. The returned protocol is the one the verdict applies
// to — which may differ from p in its livelock behavior (see
// CheckLivelockFreedom's doc comment); the transformation never *adds*
// livelocks, so a PotentialLivelock verdict is as meaningful as on p, but a
// Free verdict proves freedom only for the transformed protocol.
func CheckLivelockFreedomTransformed(p *core.Protocol, opts CheckOptions) (Report, *core.Protocol, error) {
	q, err := p.SelfDisable()
	if err != nil {
		return Report{}, nil, fmt.Errorf("ltg: %w", err)
	}
	rep, err := CheckLivelockFreedom(q, opts)
	rep.SelfDisabled = q != p
	return rep, q, err
}

// TrailReason renders the standard one-line explanation of a
// potential-livelock verdict for a given trail witness.
func TrailReason(sys *core.System, w *TrailWitness) string {
	return fmt.Sprintf("t-arc set %s forms a pseudo-livelock and a contiguous trail through illegitimate state %s",
		FormatTArcs(sys, w.TArcs), sys.Protocol().FormatState(w.IllegitimateStates[0]))
}

func subsetOf(tarcs []core.LocalTransition, mask int) []core.LocalTransition {
	var out []core.LocalTransition
	for i := range tarcs {
		if mask&(1<<i) != 0 {
			out = append(out, tarcs[i])
		}
	}
	return out
}

// trailFor decides whether the t-arc subset S' supports a contiguous trail:
//
//  1. build the composite graph: for each t-arc (u -> u') in S', composite
//     edges u => v for every v in Sources(S') reachable from u' by s-arcs
//     whose intermediate states are themselves in Sources(S');
//  2. require every t-arc of S' to lie on some composite cycle;
//  3. require an illegitimate state among the states the trail visits
//     (sources and targets of S' — by Lemma 5.12 all trail vertices are
//     t-arc endpoints).
//
// Returns a witness, or nil when no trail exists.
func (l *LTG) trailFor(subset []core.LocalTransition) *TrailWitness {
	sys := l.sys
	n := sys.N()

	sources := make([]bool, n)
	visited := map[core.LocalState]bool{}
	for _, t := range subset {
		sources[t.Src] = true
		visited[t.Src] = true
		visited[t.Dst] = true
	}

	// Illegitimate state among trail vertices?
	var illegit []core.LocalState
	for s := range visited {
		if !sys.Legit[s] {
			illegit = append(illegit, s)
		}
	}
	if len(illegit) == 0 {
		return nil
	}

	// Composite graph over local states; remember which t-arcs label each
	// composite edge.
	comp := graph.New(n)
	edgeTArcs := map[[2]int][]int{}
	sArcs := l.r.Graph()
	for ti, t := range subset {
		ends := l.sRunEndpoints(int(t.Dst), sources, sArcs)
		for _, v := range ends {
			comp.AddEdge(int(t.Src), v)
			key := [2]int{int(t.Src), v}
			edgeTArcs[key] = append(edgeTArcs[key], ti)
		}
	}

	// Every t-arc must have a composite edge on a cycle: edge (a,b) is on a
	// cycle iff a and b share an SCC (or a==b).
	_, sccIdx := comp.SCCIndex()
	onCycle := make([]bool, len(subset))
	for key, tis := range edgeTArcs {
		a, b := key[0], key[1]
		cyc := a == b || sccIdx[a] == sccIdx[b]
		if !cyc {
			continue
		}
		for _, ti := range tis {
			onCycle[ti] = true
		}
	}
	for _, ok := range onCycle {
		if !ok {
			return nil
		}
	}

	// Extract a display cycle: an elementary cycle of the composite graph.
	cycles, _ := comp.ElementaryCycles(64)
	var cycle []core.LocalState
	if len(cycles) > 0 {
		// Prefer the longest enumerated cycle (richer witness).
		best := cycles[0]
		for _, c := range cycles {
			if len(c) > len(best) {
				best = c
			}
		}
		for _, v := range best {
			cycle = append(cycle, core.LocalState(v))
		}
	}

	sortStates(illegit)
	return &TrailWitness{
		TArcs:              subset,
		Cycle:              cycle,
		IllegitimateStates: illegit,
	}
}

// sRunEndpoints returns the source-states reachable from start via one or
// more s-arcs where every intermediate state (all states after start and
// before the endpoint) is itself a source. start is a t-arc target and may
// be expanded unconditionally for the first hop.
func (l *LTG) sRunEndpoints(start int, sources []bool, sArcs *graph.Digraph) []int {
	seen := map[int]bool{}
	var ends []int
	// First hop.
	frontier := append([]int(nil), sArcs.Succ(start)...)
	for len(frontier) > 0 {
		v := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		if sources[v] {
			ends = append(ends, v)
			// Continue through v: it is an enabled intermediate (w1 rule).
			frontier = append(frontier, sArcs.Succ(v)...)
		}
		// Non-source states are dead ends: the trail cannot pass through a
		// disabled process's local state inside an enablement segment.
	}
	return ends
}

// coarseCheck is the fallback for protocols with too many t-arcs for the
// exact subset search. Because the composite graph of any subset S' is a
// subgraph of the composite graph of the full t-arc set (Sources(S') is a
// subset of Sources(all)), the following necessary conditions for a trail
// are monotone, making the Free verdict sound:
//
//   - some t-arc subset forms a pseudo-livelock (the full write projection
//     has a cycle);
//   - some t-arc endpoint is illegitimate;
//   - the full composite graph has a cycle.
//
// When all three hold the coarse check cannot decide and returns Unknown.
// The first condition is window-independent: a process that moves forever
// walks a cycle of its write projection. The other two rest on Theorem
// 5.14, so on a window TheoremScope excludes they end in Unknown too.
// all is the t-arc set under scrutiny (usually l's compiled transitions, but
// an overlay works the same way). ctx is polled before every t-arc's s-run
// search, which can visit every local state.
func (l *LTG) coarseCheck(ctx context.Context, rep Report, all []core.LocalTransition) (Report, error) {
	sys := l.sys
	rep.SubsetsChecked = 1
	if !HasPseudoLivelockSubset(sys, all) {
		rep.Verdict = VerdictFree
		rep.Reason = "no t-arc subset can form a pseudo-livelock (write projection is acyclic)"
		return rep, nil
	}
	anyIllegit := false
	for _, t := range all {
		if !sys.Legit[t.Src] || !sys.Legit[t.Dst] {
			anyIllegit = true
			break
		}
	}
	if !anyIllegit {
		return free(sys.Protocol(), rep, "no t-arc endpoint is illegitimate, so no trail can visit an illegitimate state"), nil
	}
	sources := make([]bool, sys.N())
	for _, t := range all {
		sources[t.Src] = true
	}
	comp := graph.New(sys.N())
	sArcs := l.r.Graph()
	for _, t := range all {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		for _, v := range l.sRunEndpoints(int(t.Dst), sources, sArcs) {
			comp.AddEdge(int(t.Src), v)
		}
	}
	if !comp.HasCycle() {
		return free(sys.Protocol(), rep, "the composite alternation graph is acyclic: no closed trail exists"), nil
	}
	rep.Verdict = VerdictUnknown
	rep.Reason = fmt.Sprintf("t-arc count %d exceeds exact-search limit; coarse check inconclusive", len(all))
	return rep, nil
}

func sortStates(xs []core.LocalState) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
