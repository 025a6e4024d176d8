// Package verify is the one-call verification facade: it composes the
// paper's local theorems (rcg, ltg), witness confirmation, and optional
// bounded explicit cross-validation into a single structured report — the
// API a downstream user reaches for first.
//
// The package also owns SpecCache, the compiled-spec cache that memoizes
// the DSL front end (parse + validate + compile to core.Protocol tables)
// keyed by the canonical dsl.Format rendering. The service layer mounts it
// in front of the job pipeline so repeat submissions and batch sweeps of
// the same protocol skip the front end entirely; see PERFORMANCE.md for
// the measured effect.
//
// RequestOptions and Result are the wire shapes of one verification —
// options in, projected report out — shared by the service, its journal
// and cache, and every cluster worker.
package verify

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"

	"paramring/internal/core"
	"paramring/internal/explicit"
	"paramring/internal/invariant"
	"paramring/internal/ltg"
	"paramring/internal/rcg"
)

// invariantAnalyze is the invariant-lane entry point. It is a variable so
// the disagreement-injection test can stand in a deliberately miscompiled
// analysis and assert that Check surfaces the conflict instead of silently
// preferring one lane.
var invariantAnalyze = invariant.Analyze

// Status is the overall verdict for a property across all ring sizes.
type Status int

const (
	// Proved: the property holds for EVERY ring size K.
	Proved Status = iota + 1
	// Refuted: a concrete counterexample exists (witness attached).
	Refuted
	// Inconclusive: the sufficient condition failed but no counterexample
	// was found within the search bound.
	Inconclusive
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Proved:
		return "proved"
	case Refuted:
		return "refuted"
	case Inconclusive:
		return "inconclusive"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options tunes Protocol verification.
type Options struct {
	// ConfirmMaxK bounds the witness-confirmation search (default 7).
	ConfirmMaxK int
	// CrossValidateMaxK, when > 1, additionally model-checks every ring
	// size 2..CrossValidateMaxK exhaustively and reports disagreements
	// (they would indicate a bug, not a protocol property).
	CrossValidateMaxK int
	// Check tunes the Theorem 5.14 search.
	Check ltg.CheckOptions
	// BoundedFallbackMaxK, when > 1, resolves Inconclusive livelock
	// verdicts by exhaustive livelock search for every ring size up to the
	// bound: if none is found the verdict stays Inconclusive but
	// LivelockBoundedFreeK records the bound (useful for bidirectional
	// protocols, where Theorem 5.14 covers contiguous livelocks only).
	BoundedFallbackMaxK int
	// Workers sets the explicit-engine worker count used for
	// cross-validation and the bounded fallback: each ring size's state
	// sweep is sharded across that many goroutines (0 =
	// runtime.GOMAXPROCS(0); 1 = sequential). The report is identical for
	// any worker count.
	Workers int
	// MaxStates, when > 0, overrides the explicit engine's state-count
	// guard (explicit.DefaultMaxStates) for every instance this run
	// builds. A resource governor (the service layer's memory admission
	// control) lowers it so an instance whose tables would not fit the
	// budget fails construction with a one-line error instead of OOMing;
	// it never changes any verdict that completes.
	MaxStates uint64
	// Invariant enables the trap/structural-invariant lane (package
	// invariant): a third verdict source, independent of both the
	// rcg/ltg theorems and the explicit engine, that works directly on
	// the local action tables — parameterized in K, never building a
	// per-K instance. Its conclusive verdicts ship a machine-checkable
	// Certificate that CheckCtx re-validates with the lane's independent
	// checker before comparing verdicts across lanes.
	Invariant bool
	// InvariantMaxStates, when > 0, overrides the invariant lane's
	// local-state guard (invariant.Options.MaxLocalStates). Like
	// MaxStates it is a resource governor, not a verdict knob.
	InvariantMaxStates int
}

// EstimatePeakTableBytes returns a pre-run upper bound on the resident
// explicit-engine table bytes a Check run with these options can hold at
// once, counted as the per-K membership bitsets of every ring size in
// 2..maxK together — a bound, since the explicit engine checks the ring
// sizes one after another. Zero
// means the options request no explicit work at all — the local theorems
// allocate per-local-state structures, not per-global-state tables, and
// the invariant lane (Options.Invariant) is equally symbolic, so a
// theorem+invariant-only run reports zero here and clears any admission
// ceiling regardless of ring size. The service layer gates job admission
// on this figure against a server-wide budget before any allocation
// happens.
func EstimatePeakTableBytes(p *core.Protocol, opts Options) uint64 {
	maxK := opts.CrossValidateMaxK
	if opts.BoundedFallbackMaxK > maxK {
		maxK = opts.BoundedFallbackMaxK
	}
	if maxK < 2 {
		return 0
	}
	var total uint64
	for k := 2; k <= maxK; k++ {
		states, ok := explicit.EstimateStates(p.Domain(), k)
		if !ok {
			return math.MaxUint64
		}
		b := explicit.EstimateTableBytes(states)
		if total > math.MaxUint64-b {
			return math.MaxUint64
		}
		total += b
	}
	return total
}

// Report is the combined verification outcome.
type Report struct {
	// Deadlock is the Theorem 4.2 verdict: Proved or Refuted (the theorem
	// is exact, so never Inconclusive).
	Deadlock Status
	// DeadlockWitnessK, when Refuted, is the smallest length of an
	// illegitimate cycle among the first 256 elementary cycles of the
	// deadlock-induced RCG in Johnson's order (a self-loop counts as 2, the
	// smallest ring): a ring size that deadlocks, but not necessarily the
	// smallest one, since the cap can leave shorter cycles unenumerated. It
	// is 0 when none of those 256 cycles is illegitimate.
	DeadlockWitnessK int

	// Livelock is the Theorem 5.14 verdict: Proved (free for all K),
	// Refuted (trail confirmed as a real livelock), or Inconclusive
	// (trail found but not reconstructible within the bound). For
	// bidirectional rings a Proved verdict covers contiguous livelocks
	// only (see ContiguousOnly).
	Livelock Status
	// LivelockDetail is the underlying LTG report.
	LivelockDetail ltg.Report
	// LivelockWitnessK, when Refuted, is the confirmed livelock's ring size.
	LivelockWitnessK int
	// ContiguousOnly mirrors ltg.Report.ContiguousOnly.
	ContiguousOnly bool
	// LivelockSkipped is set (with the reason) when the protocol violates
	// Assumption 2 and Theorem 5.14 does not apply.
	LivelockSkipped string
	// LivelockBoundedFreeK, when > 0, records that exhaustive search found
	// no livelock for any ring size 2..LivelockBoundedFreeK (set only for
	// Inconclusive verdicts with Options.BoundedFallbackMaxK).
	LivelockBoundedFreeK int
	// LivelockTheorem preserves Theorem 5.14's own verdict before any
	// invariant-lane merge or bounded-fallback refutation touches
	// Livelock, so per-lane renderings can show each lane's original
	// answer side by side.
	LivelockTheorem Status

	// Invariant is true when the invariant lane ran to completion (see
	// Options.Invariant); InvariantSkipped carries the reason when it was
	// requested but did not run.
	Invariant bool
	// InvariantDeadlock / InvariantLivelock / InvariantClosure are the
	// lane's per-property verdicts, mapped onto the shared Status scale
	// (invariant.Holds -> Proved, Fails -> Refuted, Unknown ->
	// Inconclusive). They are comparison inputs: CheckCtx never silently
	// overwrites a theorem verdict with them — conclusive conflicts land
	// in Disagreements with both lanes rendered side by side.
	InvariantDeadlock Status
	InvariantLivelock Status
	InvariantClosure  Status
	// InvariantSkipped is set (with the reason) when Options.Invariant was
	// requested but the lane could not run (e.g. the local-state guard).
	InvariantSkipped string
	// InvariantCount is the number of invariants in the certified set.
	InvariantCount int
	// InvariantCertBytes is the canonical certificate's encoded size.
	InvariantCertBytes int
	// InvariantDetail is the lane's full report, certificate included.
	InvariantDetail *invariant.Report
	// LivelockProvedByInvariant records that the all-K, all-pattern
	// livelock-freedom proof came from the invariant lane where Theorem
	// 5.14 was inconclusive, skipped, or contiguous-only.
	LivelockProvedByInvariant bool

	// SelfStabilizing is true when both properties are Proved on a
	// unidirectional ring: the protocol strongly stabilizes for every K
	// (Proposition 2.1, given closure).
	SelfStabilizing bool

	// CrossValidated lists the ring sizes checked exhaustively; any
	// disagreement panics in tests and is reported here otherwise.
	CrossValidated []int
	// Disagreements lists cross-validation conflicts (always empty unless
	// an implementation bug exists).
	Disagreements []string

	// ExplicitStates totals the global states enumerated by the explicit
	// engine across cross-validation and the bounded fallback (0 when the
	// verdict came from local reasoning alone). The service layer exports
	// it as a work metric: a cached verdict re-served must add zero here.
	ExplicitStates uint64
	// ExplicitPeakTableBytes is the largest resident per-state table held
	// by any single explicit instance during the run (see
	// explicit.Instance.TableBytes) — with the packed bitset substrate this
	// is one bit per global state. The service layer exports it as the
	// memory-per-verification gauge.
	ExplicitPeakTableBytes uint64
}

// Protocol runs the full local-reasoning verification pipeline. It is
// equivalent to Check and kept under the historical name.
func Protocol(p *core.Protocol, opts Options) (*Report, error) {
	return CheckCtx(context.Background(), p, opts)
}

// Check runs the full local-reasoning verification pipeline.
func Check(p *core.Protocol, opts Options) (*Report, error) {
	return CheckCtx(context.Background(), p, opts)
}

// CheckCtx is Check with cooperative cancellation: ctx is polled at phase
// boundaries and threaded into every explicit-engine call (instance
// construction, state scans, Tarjan), so a deadline or cancel aborts the
// pipeline with ctx.Err() instead of running the state spaces to completion.
func CheckCtx(ctx context.Context, p *core.Protocol, opts Options) (*Report, error) {
	if opts.ConfirmMaxK <= 0 {
		opts.ConfirmMaxK = 7
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	rep := &Report{}
	sys := p.Compile()
	engineOpts := []explicit.Option{explicit.WithWorkers(opts.Workers)}
	if opts.MaxStates > 0 {
		engineOpts = append(engineOpts, explicit.WithMaxStates(opts.MaxStates))
	}
	// checkRings runs the explicit engine over ring sizes 2..maxK and folds
	// their sizes into the report's work and memory figures. A construction
	// error names the ring size it failed at (the smallest failing one).
	checkRings := func(phase string, maxK int, livelock bool) ([]explicit.RingCheck, error) {
		rings, err := explicit.CheckRings(ctx, p, maxK, livelock, engineOpts...)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("verify: %s K=%d: %w", phase, len(rings)+2, err)
		}
		for _, rc := range rings {
			rep.ExplicitStates += rc.States
			rep.ExplicitPeakTableBytes = max(rep.ExplicitPeakTableBytes, rc.TableBytes)
		}
		return rings, nil
	}

	// Theorem 4.2. A modest witness cap keeps dense deadlock graphs (e.g.
	// action-free protocols, where every local state is a deadlock) cheap:
	// the Free verdict is SCC-based and remains valid when witness
	// enumeration hits the limit. witnessLens are the distinct lengths of
	// the illegitimate cycles among the first 256 enumerated.
	free, witnessLens := rcg.Build(sys).BadCycleLengths(256)
	if free {
		rep.Deadlock = Proved
	} else {
		rep.Deadlock = Refuted
		if len(witnessLens) > 0 {
			// Rings need at least two processes; a self-loop witness doubles.
			rep.DeadlockWitnessK = max(witnessLens[0], 2)
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Theorem 5.14.
	ll, err := ltg.CheckLivelockFreedom(p, opts.Check)
	if err != nil {
		rep.LivelockSkipped = err.Error()
		rep.Livelock = Inconclusive
	} else {
		rep.LivelockDetail = ll
		rep.ContiguousOnly = ll.ContiguousOnly
		switch ll.Verdict {
		case ltg.VerdictFree:
			rep.Livelock = Proved
		case ltg.VerdictPotentialLivelock:
			conf, err := ltg.ConfirmWitness(p, ll.Witness, opts.ConfirmMaxK)
			if err != nil {
				return nil, fmt.Errorf("verify: %w", err)
			}
			if conf.Confirmed {
				rep.Livelock = Refuted
				rep.LivelockWitnessK = conf.K
			} else {
				rep.Livelock = Inconclusive
			}
		default:
			rep.Livelock = Inconclusive
		}
	}

	// Invariant lane: an independent symbolic backend (value traps, the
	// deadlock-continuation ranking, and a termination potential) computed
	// straight from the local action tables, parameterized in K. It runs
	// after the theorems so conclusive-vs-conclusive conflicts — which
	// would indicate a tool bug, not a protocol property — can be surfaced
	// immediately, and before the bounded fallback so a lane-proved
	// livelock verdict skips the explicit search entirely.
	theoremLivelock := rep.Livelock
	rep.LivelockTheorem = theoremLivelock
	if opts.Invariant {
		irep, err := invariantAnalyze(ctx, p, invariant.Options{MaxLocalStates: opts.InvariantMaxStates})
		switch {
		case err != nil && ctx.Err() != nil:
			return nil, ctx.Err()
		case err != nil:
			rep.InvariantSkipped = err.Error()
			rep.InvariantDeadlock = Inconclusive
			rep.InvariantLivelock = Inconclusive
			rep.InvariantClosure = Inconclusive
		default:
			rep.Invariant = true
			rep.InvariantDetail = irep
			rep.InvariantDeadlock = verdictStatus(irep.Deadlock)
			rep.InvariantLivelock = verdictStatus(irep.Livelock)
			rep.InvariantClosure = verdictStatus(irep.Closure)
			rep.InvariantCount = irep.InvariantCount
			// Trust nothing the lane claims until its certificate survives
			// the independent checker; a failed re-check is a tool-bug
			// diagnostic and demotes every lane verdict to Inconclusive.
			if irep.Certificate == nil {
				rep.Disagreements = append(rep.Disagreements,
					"invariant lane: report carries no certificate")
				rep.InvariantDeadlock = Inconclusive
				rep.InvariantLivelock = Inconclusive
				rep.InvariantClosure = Inconclusive
			} else {
				rep.InvariantCertBytes = irep.Certificate.Size()
				if cerr := invariant.CheckCertificate(p, irep.Certificate); cerr != nil {
					rep.Disagreements = append(rep.Disagreements,
						fmt.Sprintf("invariant lane: certificate failed independent re-check: %v", cerr))
					rep.InvariantDeadlock = Inconclusive
					rep.InvariantLivelock = Inconclusive
					rep.InvariantClosure = Inconclusive
				}
			}
		}
		// Lane-vs-theorem comparison. Both deadlock lanes are exact, so any
		// difference is a bug; the theorem verdict is kept (never silently
		// replaced) and the conflict is reported with both lanes side by
		// side.
		if rep.InvariantDeadlock != Inconclusive && rep.InvariantDeadlock != rep.Deadlock {
			rep.Disagreements = append(rep.Disagreements, fmt.Sprintf(
				"deadlock-freedom: Theorem 4.2 says %v, invariant lane says %v", rep.Deadlock, rep.InvariantDeadlock))
		}
		if rep.InvariantLivelock != Inconclusive && theoremLivelock != Inconclusive &&
			rep.InvariantLivelock != theoremLivelock {
			rep.Disagreements = append(rep.Disagreements, fmt.Sprintf(
				"livelock-freedom: Theorem 5.14 says %v, invariant lane says %v", theoremLivelock, rep.InvariantLivelock))
		}
		// Where the theorems are silent the certified lane verdict settles
		// the property — this is the lane's reason to exist: matchingA/B and
		// MIS are Proved here and nowhere else in the repo.
		if theoremLivelock == Inconclusive && len(rep.Disagreements) == 0 {
			switch rep.InvariantLivelock {
			case Proved:
				rep.Livelock = Proved
				rep.LivelockProvedByInvariant = true
			case Refuted:
				rep.Livelock = Refuted
				rep.LivelockWitnessK = rep.InvariantDetail.LivelockWitnessK
			}
		}
		// A theorem-Proved verdict that covers contiguous livelocks only is
		// completed to all interleavings by the lane's termination argument.
		if theoremLivelock == Proved && rep.ContiguousOnly && rep.InvariantLivelock == Proved {
			rep.LivelockProvedByInvariant = true
		}
	}

	// Bounded fallback for inconclusive livelock verdicts: every ring size
	// in [2, bound] is searched, and the smallest livelocking K refutes.
	if rep.Livelock == Inconclusive && opts.BoundedFallbackMaxK > 1 {
		rings, err := checkRings("bounded fallback", opts.BoundedFallbackMaxK, true)
		if err != nil {
			return nil, err
		}
		rep.LivelockBoundedFreeK = opts.BoundedFallbackMaxK
		for _, rc := range rings {
			if rc.Livelock {
				rep.Livelock = Refuted
				rep.LivelockWitnessK = rc.K
				rep.LivelockBoundedFreeK = 0
				break
			}
		}
	}

	rep.SelfStabilizing = rep.Deadlock == Proved && rep.Livelock == Proved &&
		((!rep.ContiguousOnly && rep.LivelockSkipped == "") || rep.LivelockProvedByInvariant)

	// Optional exhaustive cross-validation, in ascending ring size. A
	// livelock search arbitrates every lane that claims freedom: Theorem
	// 5.14, the invariant lane, or both.
	if opts.CrossValidateMaxK > 1 {
		searchLivelock := rep.Livelock == Proved || rep.InvariantLivelock == Proved
		rings, err := checkRings("cross-validation", opts.CrossValidateMaxK, searchLivelock)
		if err != nil {
			return nil, err
		}
		for _, rc := range rings {
			k := rc.K
			rep.CrossValidated = append(rep.CrossValidated, k)
			if rc.Deadlock && rep.Deadlock == Proved {
				rep.Disagreements = append(rep.Disagreements,
					fmt.Sprintf("K=%d: explicit deadlock contradicts Theorem 4.2 Proved", k))
			}
			if rc.Deadlock && rep.InvariantDeadlock == Proved {
				rep.Disagreements = append(rep.Disagreements,
					fmt.Sprintf("K=%d: explicit deadlock contradicts invariant-lane Holds", k))
			}
			if !rc.Deadlock && rep.Deadlock == Refuted &&
				(slices.Contains(witnessLens, k) || (k == 2 && slices.Contains(witnessLens, 1))) {
				rep.Disagreements = append(rep.Disagreements,
					fmt.Sprintf("K=%d: Theorem 4.2 witness size not reproduced", k))
			}
			if rc.Livelock && rep.Livelock == Proved && !rep.LivelockProvedByInvariant {
				rep.Disagreements = append(rep.Disagreements,
					fmt.Sprintf("K=%d: explicit livelock contradicts Theorem 5.14 Proved", k))
			}
			if rc.Livelock && rep.InvariantLivelock == Proved {
				rep.Disagreements = append(rep.Disagreements,
					fmt.Sprintf("K=%d: explicit livelock contradicts invariant-lane Holds", k))
			}
		}
	}
	// Any cross-lane conflict is a tool-bug condition: no headline claim
	// survives it, whatever the individual lanes said.
	if len(rep.Disagreements) > 0 {
		rep.SelfStabilizing = false
	}
	return rep, nil
}

// verdictStatus maps the invariant lane's verdict scale onto the report's.
func verdictStatus(v invariant.Verdict) Status {
	switch v {
	case invariant.Holds:
		return Proved
	case invariant.Fails:
		return Refuted
	default:
		return Inconclusive
	}
}

// Summary renders a human-readable digest.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "deadlock-freedom (all K): %v", r.Deadlock)
	if r.Deadlock == Refuted {
		fmt.Fprintf(&b, " (witness ring size %d)", r.DeadlockWitnessK)
	}
	b.WriteString("; livelock-freedom")
	if r.ContiguousOnly {
		b.WriteString(" (contiguous only)")
	}
	fmt.Fprintf(&b, ": %v", r.Livelock)
	if r.Livelock == Refuted {
		fmt.Fprintf(&b, " (livelock at K=%d)", r.LivelockWitnessK)
	}
	if r.LivelockSkipped != "" {
		b.WriteString(" [Theorem 5.14 not applicable]")
	}
	if r.LivelockBoundedFreeK > 0 {
		fmt.Fprintf(&b, " (no livelock up to K=%d)", r.LivelockBoundedFreeK)
	}
	if r.LivelockProvedByInvariant {
		b.WriteString(" [proved by invariant lane]")
	}
	if r.Invariant {
		fmt.Fprintf(&b, "; invariant lane: deadlock %v, livelock %v, closure %v (%d invariants, certificate %d bytes)",
			r.InvariantDeadlock, r.InvariantLivelock, r.InvariantClosure,
			r.InvariantCount, r.InvariantCertBytes)
	}
	if r.InvariantSkipped != "" {
		fmt.Fprintf(&b, "; invariant lane skipped: %s", r.InvariantSkipped)
	}
	if r.SelfStabilizing {
		b.WriteString("; SELF-STABILIZING FOR EVERY K")
	}
	if len(r.Disagreements) > 0 {
		fmt.Fprintf(&b, "; DISAGREEMENTS: %v", r.Disagreements)
	}
	return b.String()
}
