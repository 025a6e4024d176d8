// Package synthesis implements the paper's Section 6 methodology: automated
// addition of convergence to a non-stabilizing parameterized ring protocol,
// reasoning entirely in the local state space of the representative process.
//
// Given a base protocol p and a locally conjunctive legitimate predicate
// I = AND_r LC_r closed in p, the synthesizer:
//
//  1. computes the local deadlocks D_L and the RCG induced over them;
//  2. chooses Resolve, a minimal subset of the illegitimate local deadlocks
//     hitting every illegitimate deadlock cycle (Theorem 4.2 repair);
//  3. generates candidate local transitions out of Resolve that are
//     self-disabling by construction (targets are local deadlocks outside
//     Resolve);
//  4. (NPL) prefers candidate sets with no pseudo-livelocks;
//  5. (PL) otherwise accepts candidate sets whose pseudo-livelocking subsets
//     form no contiguous trail in the LTG (Theorem 5.14); if no candidate
//     set survives, it declares failure — exactly as the paper does for
//     3-coloring and 2-coloring.
//
// The result provably strongly stabilizes for EVERY ring size K, and the
// Problem 3.1 contract holds by construction: new transitions originate only
// in illegitimate local states, so I, Delta_p|I and closure are untouched.
package synthesis

import (
	"errors"
	"fmt"
	"runtime"
	"sort"

	"paramring/internal/core"
	"paramring/internal/graph"
	"paramring/internal/ltg"
	"paramring/internal/rcg"
)

// hittingSets delegates to the graph package; the empty family yields the
// single empty Resolve set (nothing to repair).
func hittingSets(family [][]int, allowed map[int]bool, limit int) ([][]int, error) {
	return graph.MinimalHittingSets(family, allowed, limit)
}

// ErrNoSolution is returned (wrapped) when the methodology declares failure:
// every deadlock-resolving candidate set fails the livelock conditions.
var ErrNoSolution = errors.New("synthesis: no candidate set satisfies the livelock-freedom conditions")

// Phase records which branch of the methodology accepted the solution.
type Phase int

const (
	// PhaseNPL means the chosen transitions contain no pseudo-livelock at
	// all (Step 4).
	PhaseNPL Phase = iota + 1
	// PhasePL means pseudo-livelocks exist but none forms a contiguous
	// trail (Step 5).
	PhasePL
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseNPL:
		return "NPL"
	case PhasePL:
		return "PL"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Options tunes Synthesize.
type Options struct {
	// ActionName names the synthesized recovery action (default "conv").
	ActionName string
	// MaxResolveSets caps the number of minimal Resolve sets explored.
	MaxResolveSets int
	// MaxAssignments caps the candidate-set product per Resolve set. The
	// default is 1<<20: branch-and-bound pruning and per-set deadlock
	// prechecks make products far beyond the old flat-enumeration cap (4096)
	// tractable.
	MaxAssignments int
	// Check tunes the Theorem 5.14 trail search.
	Check ltg.CheckOptions
	// All requests every accepted candidate set, not just the first.
	All bool
	// Workers is the number of concurrent workers searching the assignment
	// frontier (<= 0 selects runtime.GOMAXPROCS(0)). Accepted, Rejections,
	// ResolveSets and Steps are byte-identical at every worker count: the
	// winner is always the lexicographically smallest accepted assignment
	// index, and outcomes are assembled in index order. Pass Workers: 1
	// explicitly for the sequential reference path.
	Workers int
	// Flat disables pruning and the per-Resolve-set deadlock precheck,
	// evaluating every assignment independently — the original flat
	// enumeration, kept as the reference path for differential tests.
	Flat bool
}

func (o *Options) defaults() {
	if o.ActionName == "" {
		o.ActionName = "conv"
	}
	if o.MaxResolveSets <= 0 {
		o.MaxResolveSets = 64
	}
	if o.MaxAssignments <= 0 {
		o.MaxAssignments = 1 << 20
	}
	if o.Check.MaxTArcs <= 0 {
		o.Check.MaxTArcs = 16
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Candidate is one accepted solution.
type Candidate struct {
	// Protocol is p_ss: the base protocol plus the chosen recovery action.
	Protocol *core.Protocol
	// Resolve is the set of illegitimate local deadlocks resolved.
	Resolve []core.LocalState
	// Chosen are the added local transitions.
	Chosen []core.LocalTransition
	// Phase reports NPL or PL acceptance.
	Phase Phase
	// Livelock is the final Theorem 5.14 report for p_ss.
	Livelock ltg.Report
	// Deadlock is the final Theorem 4.2 report for p_ss.
	Deadlock rcg.DeadlockReport
}

// Rejection explains why one candidate set failed.
type Rejection struct {
	Resolve []core.LocalState
	Chosen  []core.LocalTransition
	Reason  string
}

// Result is the full outcome of a synthesis run.
type Result struct {
	// Accepted lists the solutions (one unless Options.All).
	Accepted []Candidate
	// Rejections lists failed candidate sets with reasons (always recorded;
	// for successful runs these are the sets tried before acceptance).
	Rejections []Rejection
	// Steps is a human-readable narrative of the methodology, step by step.
	Steps []string
	// ResolveSets lists every minimal Resolve set considered.
	ResolveSets [][]core.LocalState
	// Stats reports how the search engine reached the result (diagnostic
	// only: counts vary with worker speculation; the fields above do not).
	Stats SearchStats
}

// Best returns the first accepted candidate.
func (r *Result) Best() *Candidate {
	if len(r.Accepted) == 0 {
		return nil
	}
	return &r.Accepted[0]
}

// Synthesize runs the Section 6 methodology on a base protocol.
func Synthesize(base *core.Protocol, opts Options) (*Result, error) {
	opts.defaults()
	res := &Result{}
	logf := func(format string, args ...any) {
		res.Steps = append(res.Steps, fmt.Sprintf(format, args...))
	}

	sys := base.Compile()
	if !sys.IsSelfDisabling() {
		return nil, fmt.Errorf("synthesis: base protocol %q has self-enabling transitions; transform with SelfDisable first", base.Name())
	}
	// Candidates are accepted on Theorem 5.14's word, which proves nothing
	// on a window it does not cover.
	if err := ltg.TheoremScope(base); err != nil {
		return nil, fmt.Errorf("synthesis: base protocol %q: %w", base.Name(), err)
	}

	// Step 1: local deadlocks and the induced RCG.
	r := rcg.Build(sys)
	dg := r.DeadlockGraph()
	logf("Step 1: %d local states, %d local deadlocks (%d illegitimate)",
		sys.N(), len(sys.Deadlocks), len(sys.IllegitimateDeadlocks()))

	// Step 2: minimal Resolve sets = minimal hitting sets of the
	// illegitimate deadlock cycles, drawn from illegitimate deadlocks.
	illegit := func(v int) bool { return !sys.Legit[v] }
	allowed := map[int]bool{}
	for _, d := range sys.IllegitimateDeadlocks() {
		allowed[int(d)] = true
	}
	badCycles, err := dg.CyclesThroughAny(illegit, 0)
	if err != nil {
		return nil, fmt.Errorf("synthesis: enumerating deadlock cycles: %w", err)
	}
	if len(badCycles) == 0 {
		logf("Step 2: base protocol is already deadlock-free for every K (Theorem 4.2)")
	}
	resolveSets, err := hittingSets(badCycles, allowed, opts.MaxResolveSets)
	if err != nil {
		return nil, fmt.Errorf("synthesis: no Resolve set exists: %w", err)
	}
	for _, rs := range resolveSets {
		res.ResolveSets = append(res.ResolveSets, toStates(rs))
	}
	logf("Step 2: %d illegitimate deadlock cycle(s); %d minimal Resolve set(s): %s",
		len(badCycles), len(resolveSets), formatResolveSets(base, res.ResolveSets))

	// Steps 3-5 per Resolve set, searched by the engine: the base LTG is the
	// shared s-arc skeleton candidates are overlaid on.
	eng := &engine{base: base, sys: sys, r: r, l: ltg.BuildFrom(sys, r), opts: opts}
	defer func() { res.Stats = eng.stats() }()

	for _, rs := range resolveSets {
		resolve := toStates(rs)
		inResolve := map[core.LocalState]bool{}
		for _, s := range resolve {
			inResolve[s] = true
		}

		// Step 3: candidates per resolved state: self-disabling transitions
		// whose target is a local deadlock outside Resolve.
		perState := make([][]core.LocalTransition, len(resolve))
		feasible := true
		for i, s := range resolve {
			perState[i] = candidateTransitions(sys, s, inResolve, opts.ActionName)
			if len(perState[i]) == 0 {
				logf("Step 3: Resolve=%s: no self-disabling candidate resolves %s; skipping this Resolve set",
					formatStates(base, resolve), base.FormatState(s))
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		total := 1
		for _, cs := range perState {
			total *= len(cs)
		}
		logf("Step 3: Resolve=%s: %d candidate transition(s) -> %d candidate set(s)",
			formatStates(base, resolve), countAll(perState), total)
		if total > opts.MaxAssignments {
			return nil, fmt.Errorf("synthesis: %d candidate sets exceed limit %d", total, opts.MaxAssignments)
		}

		// Steps 4-5: search the assignments (one transition per resolved
		// state), then expand the outcome spans in ascending assignment
		// order — the sequential assembly that keeps any worker count
		// byte-identical to the flat loop's first-accept behavior.
		spans, err := eng.runResolveSet(resolve, perState, total)
		if err != nil {
			return nil, err
		}
		logged := 0
		for _, sp := range spans {
			if sp.err != nil {
				return nil, sp.err
			}
			if sp.cand != nil {
				logf("  accept %s (phase %s)", ltg.FormatTArcs(sys, sp.cand.Chosen), sp.cand.Phase)
				res.Accepted = append(res.Accepted, *sp.cand)
				if !opts.All {
					return res, nil
				}
				continue
			}
			if sp.rej != nil {
				res.Rejections = append(res.Rejections, *sp.rej)
				logReject(res, sp.rej, sys, &logged)
				continue
			}
			for idx := sp.lo; idx < sp.hi; idx++ {
				rej := Rejection{Resolve: resolve, Chosen: assignment(perState, idx), Reason: sp.reason}
				res.Rejections = append(res.Rejections, rej)
				logReject(res, &rej, sys, &logged)
			}
		}
		if omitted := logged - maxRejectLogLines; omitted > 0 {
			logf("  ... %d further rejection(s) omitted from log", omitted)
		}
	}
	if len(res.Accepted) == 0 {
		logf("declare failure: every candidate set forms a pseudo-livelock participating in a contiguous trail")
		return res, fmt.Errorf("%w (base protocol %q)", ErrNoSolution, base.Name())
	}
	return res, nil
}

// maxRejectLogLines caps the per-Resolve-set "reject" lines in the Steps
// narrative. The Rejections list itself is never truncated; the cap only
// keeps the narrative readable now that assignment spaces can be huge.
const maxRejectLogLines = 1024

// logReject appends the narrative line for one rejection, honoring the cap.
func logReject(res *Result, rej *Rejection, sys *core.System, logged *int) {
	*logged++
	if *logged <= maxRejectLogLines {
		res.Steps = append(res.Steps, fmt.Sprintf("  reject %s: %s", ltg.FormatTArcs(sys, rej.Chosen), rej.Reason))
	}
}

// candidateTransitions lists the legal recovery transitions out of local
// deadlock s: change the own variable to reach a state that (a) is a local
// deadlock of the base protocol and (b) is outside Resolve, guaranteeing the
// revised protocol is self-disabling.
func candidateTransitions(sys *core.System, s core.LocalState, inResolve map[core.LocalState]bool, action string) []core.LocalTransition {
	p := sys.Protocol()
	own := p.OwnIndex()
	view := p.Decode(s)
	var out []core.LocalTransition
	for v := 0; v < p.Domain(); v++ {
		if v == view[own] {
			continue
		}
		dst := make(core.View, len(view))
		copy(dst, view)
		dst[own] = v
		code := p.Encode(dst)
		if !sys.IsDeadlock[code] || inResolve[code] {
			continue
		}
		out = append(out, core.LocalTransition{Src: s, Dst: code, Action: action})
	}
	return out
}

// evaluate builds p_ss from the chosen transitions and applies the
// deadlock/livelock checks. Exactly one of (candidate, rejection) is
// non-nil on success.
func evaluate(base *core.Protocol, sys *core.System, chosen []core.LocalTransition, resolve []core.LocalState, opts Options) (*Candidate, *Rejection, error) {
	pss, err := Apply(base, chosen, opts.ActionName)
	if err != nil {
		return nil, nil, err
	}
	ssys := pss.Compile()

	// Theorem 4.2 on the revised protocol.
	dlRep, err := rcg.Build(ssys).CheckDeadlockFreedom(0)
	if err != nil {
		return nil, nil, fmt.Errorf("synthesis: deadlock re-check: %w", err)
	}
	if !dlRep.Free {
		return nil, &Rejection{Resolve: resolve, Chosen: chosen,
			Reason: "revised protocol still has illegitimate deadlock cycles"}, nil
	}

	// Theorem 5.14 on the revised protocol (NPL and PL in one search).
	llRep, err := ltg.CheckLivelockFreedom(pss, opts.Check)
	if err != nil {
		return nil, nil, err
	}
	switch llRep.Verdict {
	case ltg.VerdictFree:
		phase := PhasePL
		if !ltg.HasPseudoLivelockSubset(ssys, ssys.Trans) {
			phase = PhaseNPL
		}
		return &Candidate{
			Protocol: pss,
			Resolve:  resolve,
			Chosen:   chosen,
			Phase:    phase,
			Livelock: llRep,
			Deadlock: dlRep,
		}, nil, nil
	case ltg.VerdictPotentialLivelock:
		return nil, &Rejection{Resolve: resolve, Chosen: chosen, Reason: llRep.Reason}, nil
	default:
		return nil, &Rejection{Resolve: resolve, Chosen: chosen,
			Reason: "livelock check inconclusive: " + llRep.Reason}, nil
	}
}

// Apply attaches recovery transitions to a base protocol as a single
// table-driven action named actionName.
func Apply(base *core.Protocol, chosen []core.LocalTransition, actionName string) (*core.Protocol, error) {
	if actionName == "" {
		actionName = "conv"
	}
	sys := base.Compile()
	moves := map[core.LocalState][]int{}
	for _, t := range chosen {
		moves[t.Src] = append(moves[t.Src], sys.OwnValue(t.Dst))
	}
	for _, vs := range moves {
		sort.Ints(vs)
	}
	ta := core.TableAction{Name: actionName, Moves: moves}
	return base.WithActions(base.Name()+"/ss", ta.Action(base.Domain())), nil
}

func assignment(perState [][]core.LocalTransition, idx int) []core.LocalTransition {
	out := make([]core.LocalTransition, len(perState))
	for i, cs := range perState {
		out[i] = cs[idx%len(cs)]
		idx /= len(cs)
	}
	// Sort for deterministic reporting.
	sort.Slice(out, func(a, b int) bool {
		if out[a].Src != out[b].Src {
			return out[a].Src < out[b].Src
		}
		return out[a].Dst < out[b].Dst
	})
	return out
}

func countAll(perState [][]core.LocalTransition) int {
	n := 0
	for _, cs := range perState {
		n += len(cs)
	}
	return n
}

func toStates(xs []int) []core.LocalState {
	out := make([]core.LocalState, len(xs))
	for i, x := range xs {
		out[i] = core.LocalState(x)
	}
	return out
}

func formatStates(p *core.Protocol, xs []core.LocalState) string {
	s := "{"
	for i, x := range xs {
		if i > 0 {
			s += ", "
		}
		s += p.FormatState(x)
	}
	return s + "}"
}

func formatResolveSets(p *core.Protocol, sets [][]core.LocalState) string {
	s := ""
	for i, set := range sets {
		if i > 0 {
			s += " "
		}
		s += formatStates(p, set)
	}
	return s
}
