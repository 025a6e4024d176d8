package cluster

import (
	"context"

	"paramring/internal/corpus"
	"paramring/internal/verify"
)

// Runner executes one verification attempt and returns the projected
// Result. It is the transport-neutral engine seam: the service's
// in-process workers and remote lrserved worker processes both run tasks
// through a Runner, so a verdict never depends on where it was computed.
// ctx is canceled on lease expiry, deadline, or shutdown.
type Runner interface {
	Run(ctx context.Context, t Task) (*verify.Result, error)
}

// LocalRunner runs tasks in-process, on the service's in-process workers
// and in remote worker processes alike: the compiled-spec cache skips
// parse/validate/compile for repeat canonical specs, and same-family
// tasks share one skeleton LTG and one Theorem 5.14 verdict memo. Sharing
// never changes a verdict — the skeleton is shape-guarded and memo
// verdicts are pure functions of the key — so the content-addressed
// result cache stays byte-stable. On batches of sweep siblings the memo
// costs about 17 MiB of peak RSS, and its effect on throughput is within
// run-to-run spread (PERFORMANCE.md, "Per-family memo ablation").
type LocalRunner struct {
	Specs *verify.SpecCache
	Memos *corpus.FamilyMemos
}

// Run implements Runner.
func (r *LocalRunner) Run(ctx context.Context, t Task) (*verify.Result, error) {
	// The task carries the canonical text, a guaranteed fixpoint of the
	// parser (see dsl.Format): normally a hit on the entry the submission
	// warmed, after an eviction an ordinary miss.
	cs, _, err := r.Specs.Compile(t.Spec)
	if err != nil {
		return nil, err
	}
	opts := t.Options.EngineOptions(t.EngineWorkers, t.DegradeBudget)
	opts.Check = r.Memos.CheckOptions(cs.Protocol, opts.Check)
	rep, err := verify.CheckCtx(ctx, cs.Protocol, opts)
	if err != nil {
		return nil, err
	}
	return rep.Result(cs.Name), nil
}
