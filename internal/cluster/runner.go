package cluster

import (
	"context"

	"paramring/internal/verify"
)

// Runner executes one verification attempt and returns the projected
// Result. It is the transport-neutral engine seam: every Worker, in
// process or joined, runs its tasks through a Runner, so a verdict never
// depends on where it was computed. ctx is canceled on lease expiry,
// deadline, or shutdown.
type Runner interface {
	Run(ctx context.Context, t Task) (*verify.Result, error)
}

// LocalRunner runs tasks in-process, on the service's in-process workers
// and in joined worker processes alike: the compiled-spec cache skips
// parse/validate/compile for repeat canonical specs, and verify.CheckCtx
// does the rest. Nothing else is shared between tasks.
type LocalRunner struct {
	Specs *verify.SpecCache
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
	rep, err := verify.CheckCtx(ctx, cs.Protocol, t.Options.EngineOptions(t.EngineWorkers, t.DegradeBudget))
	if err != nil {
		return nil, err
	}
	return rep.Result(cs.Name), nil
}
