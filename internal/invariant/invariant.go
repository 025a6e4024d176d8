// Package invariant is the trap/structural-invariant verification backend:
// the third verification lane beside the paper's local theorems (rcg, ltg)
// and the explicit model checker.
//
// Everything here is computed directly from core.Protocol's local action
// tables, parameterized in the ring size K — no per-K instance is ever
// constructed and no global bitset table is allocated. The lane follows the
// structural-invariant school of parameterized verification (Esparza et al.,
// "Abduction of trap invariants in parameterized systems"; Bozga et al.,
// "Structural Invariants for the Verification of Systems with Parameterized
// Architectures"): properties of the local transition structure that are
// inductive for every instance at once.
//
// Three certificate families are produced:
//
//   - Value traps. For a domain value v, the forward-reachability closure of
//     v in the write graph (edges own(src) -> own(dst) over the local
//     transitions) is a set T with the trap property: once a process's own
//     variable is in T it stays in T forever, for every ring size and every
//     schedule. Traps are reported and certified; they are the lane's
//     simplest stable predicates.
//
//   - A deadlock ranking. A global deadlock at ring size K is exactly a
//     cyclic sequence of K local deadlock states linked by the continuation
//     relation (the overlap of adjacent windows — the same fact Theorem 4.2
//     exploits). The lane certifies deadlock-freedom by exhibiting a ranking
//     r over the local deadlock states with r(u) >= r(v) on every
//     continuation arc and r(u) > r(v) whenever u or v is illegitimate: any
//     continuation cycle through an illegitimate deadlock would force
//     r(u) > r(u). The ranking is complete as well as sound — when no
//     ranking exists the lane returns a concrete continuation cycle as a
//     refutation witness. This mirrors Theorem 4.2's verdict through an
//     independent algorithm (condensation ranks instead of cycle search)
//     with a replayable proof object.
//
//   - A termination potential. A function phi over local states such that
//     every local transition, in every possible neighborhood context,
//     strictly decreases the global sum of phi over all processes. Writing
//     x_i changes the views of the w processes whose windows contain i;
//     quantifying the w-1 context positions those views read beyond the
//     actor's own window yields a finite linear constraint system whose
//     feasibility implies that every computation of every ring size K >= w
//     terminates — hence no livelock of any kind (contiguous or not, with or
//     without the paper's self-disabling Assumption 2). The constraints are
//     first reduced by transition-support pruning: a transition can fire
//     infinitely often only if its write edge lies on a cycle of the write
//     graph, so transitions whose write edge leaves every strongly connected
//     component are removed (iterated to a fixpoint) and only the recurrent
//     remainder must decrease phi. Feasibility is decided by an exact
//     phase-1 simplex (Dantzig's rule, then Bland's) over a fraction-free
//     integer tableau — int64 entries over one shared denominator,
//     promoted to math/big if an entry reaches 2^31 — so the certificate
//     is deterministic and never subject to floating-point doubt. Ring
//     sizes 2 <= K < w, where a window wraps onto itself and the
//     parameterized argument does not apply, are closed out by an exhaustive
//     micro-check of the d^K global states (at most d^(w-1) of them, i.e.
//     never larger than the LP's own context enumeration).
//
// A closure certificate rides along: if in every context the legitimacy of
// the actor and of every affected neighbor is preserved by every local
// transition, the legitimate predicate I = AND LC_r is closed under the
// protocol for every K.
//
// Every conclusive verdict is packaged into a Certificate — the invariant
// set plus the replayable inductiveness proof (ranks, scaled integer
// weights, witness cycles) — that CheckCertificate re-validates from first
// principles: fresh compile, decoded-view arc checks, big.Int sum
// evaluation. The package imports only internal/core; it shares no code
// with rcg, ltg, graph or explicit, which is what makes a disagreement
// between lanes a tool bug by construction.
package invariant

import (
	"context"
	"fmt"
	"runtime/trace"

	"paramring/internal/core"
)

// Verdict is the lane's conclusion about one property, quantified over every
// ring size K >= 2.
type Verdict int

const (
	// Unknown: the sufficient conditions failed; nothing is claimed.
	Unknown Verdict = iota
	// Holds: the property is certified for every ring size.
	Holds
	// Fails: a concrete counterexample is attached to the certificate.
	Fails
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Holds:
		return "holds"
	case Fails:
		return "fails"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Options bounds the analysis. The zero value selects the defaults; the
// guards exist so a pathological spec degrades into a one-line error (which
// verify surfaces as a skipped lane) instead of an unbounded computation.
type Options struct {
	// MaxLocalStates caps the local state space the lane will analyze
	// (default 1<<14), which bounds every per-state table and the LP's
	// variable count. The LP tableau itself is capped separately, at a
	// fixed number of stored cells (constraints × (variables +
	// constraints)); an LP over that cap degrades to Unknown.
	MaxLocalStates int
	// MaxConstraints caps the deduplicated LP constraint count
	// (default 1<<16).
	MaxConstraints int
	// MaxPivots caps the simplex pivot count (default 20000).
	MaxPivots int
}

func (o Options) withDefaults() Options {
	if o.MaxLocalStates <= 0 {
		o.MaxLocalStates = 1 << 14
	}
	if o.MaxConstraints <= 0 {
		o.MaxConstraints = 1 << 16
	}
	if o.MaxPivots <= 0 {
		o.MaxPivots = 20000
	}
	return o
}

// Report is the lane's outcome. All fields are deterministic functions of
// (protocol, options): the analysis has no concurrency, no map iteration in
// output order, and the simplex uses deterministic pivot rules.
type Report struct {
	// Deadlock is the verdict on "no ring size has a global deadlock outside
	// I". It is exact: Holds or Fails, never Unknown (the ranking argument
	// is complete for the continuation-cycle characterization).
	Deadlock Verdict
	// DeadlockCycleLen, when Deadlock == Fails, is the length of the
	// continuation cycle witness; the smallest deadlocked ring size is the
	// length itself (or 2 for a self-loop witness).
	DeadlockCycleLen int

	// Livelock is the verdict on "no ring size has an infinite computation
	// that never reaches I". Holds requires the termination potential (all
	// K >= w) plus clean micro-checks (2 <= K < w); Fails carries a
	// concrete small-ring cycle witness.
	Livelock Verdict
	// LivelockWitnessK, when Livelock == Fails, is the witness ring size.
	LivelockWitnessK int

	// Closure is the verdict on "I is closed under protocol actions for
	// every ring size": Holds or Unknown (a context violation cannot be
	// trusted as a refutation — the violating context may be unreachable).
	Closure Verdict

	// TrapCount is the number of distinct non-trivial value traps.
	TrapCount int
	// InvariantCount totals the certified invariant objects in the
	// certificate: traps + ranking + potential + closure.
	InvariantCount int
	// Constraints and Pivots are the LP's size and work (0 when the
	// recurrent transition set was empty and no LP was needed).
	Constraints int
	Pivots      int

	// Notes explains Unknown verdicts (infeasible LP, self-loop
	// transitions, guard limits) in deterministic order.
	Notes []string

	// Certificate is the machine-checkable proof object; non-nil on every
	// successful Analyze and re-validated by CheckCertificate.
	Certificate *Certificate
}

// Analyze runs the invariant lane on p. The returned error is non-nil only
// for cancellation or guard violations (options too small for the spec);
// inconclusive analyses return a Report with Unknown verdicts instead.
func Analyze(ctx context.Context, p *core.Protocol, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	a, err := newAnalysis(p, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	cert := &Certificate{
		Protocol:    p.Name(),
		Domain:      a.d,
		Lo:          a.lo,
		Hi:          a.hi,
		LocalStates: a.n,
		TArcs:       len(a.sys.Trans),
	}

	region := trace.StartRegion(ctx, "invariant.traps")
	cert.Traps = a.valueTraps()
	region.End()
	rep.TrapCount = len(cert.Traps)

	region = trace.StartRegion(ctx, "invariant.ranking")
	dc, dv := a.deadlockCert()
	region.End()
	cert.Deadlock = dc
	rep.Deadlock = dv
	if dv == Fails {
		rep.DeadlockCycleLen = len(dc.BadCycle)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	region = trace.StartRegion(ctx, "invariant.smallk")
	sk, smallLivelockOK, smallClosureOK := a.smallKCheck()
	region.End()
	cert.SmallK = sk
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	region = trace.StartRegion(ctx, "invariant.lp")
	tc, tv, notes, stats, err := a.termination(ctx)
	region.End()
	if err != nil {
		return nil, err
	}
	rep.Constraints, rep.Pivots = stats.constraints, stats.pivots
	rep.Notes = append(rep.Notes, notes...)
	switch {
	case sk != nil && sk.WitnessK > 0:
		rep.Livelock = Fails
		rep.LivelockWitnessK = sk.WitnessK
	case tv == Holds && smallLivelockOK:
		rep.Livelock = Holds
		cert.Termination = tc
	default:
		rep.Livelock = Unknown
	}

	closOK, err := a.closureLocal(ctx)
	if err != nil {
		return nil, err
	}
	if closOK && smallClosureOK {
		rep.Closure = Holds
		cert.ClosureHolds = true
	} else {
		rep.Closure = Unknown
		rep.Notes = append(rep.Notes, "closure: some local transition can leave I in an (over-approximated) context")
	}

	rep.InvariantCount = len(cert.Traps)
	if cert.Deadlock != nil {
		rep.InvariantCount++
	}
	if cert.Termination != nil {
		rep.InvariantCount++
	}
	if cert.ClosureHolds {
		rep.InvariantCount++
	}
	rep.Certificate = cert
	return rep, nil
}
