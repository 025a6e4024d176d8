package verify

import (
	"paramring/internal/explicit"
	"paramring/internal/ltg"
)

// RequestOptions is the client-facing tuning knob set of one verification
// request: the JSON a service accepts, journals, and hands to whichever
// worker runs the request. EngineOptions is its one translation to
// Options.
type RequestOptions struct {
	// ConfirmMaxK bounds the livelock witness-confirmation search
	// (0 selects the verify default of 7).
	ConfirmMaxK int `json:"confirm_max_k,omitempty"`
	// CrossValidateMaxK > 1 additionally model-checks every ring size
	// 2..CrossValidateMaxK with the explicit oracle.
	CrossValidateMaxK int `json:"cross_validate_max_k,omitempty"`
	// BoundedFallbackMaxK > 1 resolves Inconclusive livelock verdicts by
	// exhaustive search up to the bound.
	BoundedFallbackMaxK int `json:"bounded_fallback_max_k,omitempty"`
	// MaxTArcs bounds the Theorem 5.14 trail search (0 selects the ltg
	// default of 16).
	MaxTArcs int `json:"max_tarcs,omitempty"`
	// Invariant enables the trap/structural-invariant lane: a symbolic
	// third verdict source, independent of both the theorems and the
	// explicit engine, whose conclusive verdicts ship a re-checked
	// certificate. It estimates zero explicit-table bytes, so an
	// invariant-only submission clears memory admission at any ring size.
	Invariant bool `json:"invariant,omitempty"`
	// Workers is a hint for the explicit-engine worker count, clamped to
	// the server's engine-worker cap (0 keeps the server setting). Verdicts
	// and witnesses are identical for any worker count (the engine's
	// determinism contract), so Workers is a resource knob, never part of
	// a cache key: a workers=1 and a workers=8 submission of the same
	// spec share one cache entry.
	Workers int `json:"workers,omitempty"`
}

// Normalize resolves defaults so that semantically equal option sets are
// representationally equal — a cache key built from the normalized form
// makes {confirm_max_k: 7} and {} the same cache line.
func (o RequestOptions) Normalize() RequestOptions {
	if o.ConfirmMaxK <= 0 {
		o.ConfirmMaxK = 7
	}
	if o.MaxTArcs <= 0 {
		o.MaxTArcs = 16
	}
	if o.CrossValidateMaxK < 2 {
		o.CrossValidateMaxK = 0
	}
	if o.BoundedFallbackMaxK < 2 {
		o.BoundedFallbackMaxK = 0
	}
	if o.Workers < 0 {
		o.Workers = 0
	}
	return o
}

// EngineOptions translates to the engine's option struct. engineWorkers is
// the server's explicit-engine worker cap: the client's Workers hint may
// lower intra-job parallelism, never raise it past the server's resource
// decision. degradeBudget > 0 applies the degrade-over-budget clamps: one
// engine worker (scratch memory scales with workers) and a MaxStates
// ceiling sized to that many table bytes, so an oversized ring fails
// construction with the engine's one-line guard error instead of an OOM
// kill. Neither clamp changes a verdict that completes.
func (o RequestOptions) EngineOptions(engineWorkers int, degradeBudget uint64) Options {
	workers := engineWorkers
	if o.Workers > 0 && o.Workers < workers {
		workers = o.Workers
	}
	opts := Options{
		ConfirmMaxK:         o.ConfirmMaxK,
		CrossValidateMaxK:   o.CrossValidateMaxK,
		BoundedFallbackMaxK: o.BoundedFallbackMaxK,
		Check:               ltg.CheckOptions{MaxTArcs: o.MaxTArcs},
		Workers:             workers,
		Invariant:           o.Invariant,
	}
	if degradeBudget > 0 {
		opts.Workers = 1
		opts.MaxStates = explicit.MaxStatesForBudget(degradeBudget)
	}
	return opts
}

// Result is the JSON projection of a Report: what a service caches, serves,
// and receives from a remote worker. It deliberately carries no timings:
// it is content-addressed and shared through caches, so it must be a pure
// function of (spec, options) — the chaos and parity suites pin it
// byte-for-byte. Results are shared and must be treated as immutable.
type Result struct {
	Protocol             string   `json:"protocol"`
	Deadlock             string   `json:"deadlock"`
	DeadlockWitnessK     int      `json:"deadlock_witness_k,omitempty"`
	Livelock             string   `json:"livelock"`
	LivelockWitnessK     int      `json:"livelock_witness_k,omitempty"`
	ContiguousOnly       bool     `json:"contiguous_only,omitempty"`
	LivelockSkipped      string   `json:"livelock_skipped,omitempty"`
	LivelockBoundedFreeK int      `json:"livelock_bounded_free_k,omitempty"`
	SelfStabilizing      bool     `json:"self_stabilizing"`
	CrossValidated       []int    `json:"cross_validated,omitempty"`
	Disagreements        []string `json:"disagreements,omitempty"`
	ExplicitStates       uint64   `json:"explicit_states"` // global states of the ring sizes checked (d^K each)
	ExplicitPeakBytes    uint64   `json:"explicit_peak_table_bytes,omitempty"`
	// Invariant-lane projection (all empty/zero unless the request set
	// options.invariant and the lane ran). Verdicts use the shared
	// proved/refuted/inconclusive scale of the other lanes.
	InvariantDeadlock         string `json:"invariant_deadlock,omitempty"`
	InvariantLivelock         string `json:"invariant_livelock,omitempty"`
	InvariantClosure          string `json:"invariant_closure,omitempty"`
	InvariantSkipped          string `json:"invariant_skipped,omitempty"`
	InvariantCount            int    `json:"invariant_count,omitempty"`
	InvariantCertBytes        int    `json:"invariant_certificate_bytes,omitempty"`
	LivelockProvedByInvariant bool   `json:"livelock_proved_by_invariant,omitempty"`
	Summary                   string `json:"summary"`
}

// Result projects the report onto its wire shape for the named protocol.
func (r *Report) Result(name string) *Result {
	res := &Result{
		Protocol:             name,
		Deadlock:             r.Deadlock.String(),
		DeadlockWitnessK:     r.DeadlockWitnessK,
		Livelock:             r.Livelock.String(),
		LivelockWitnessK:     r.LivelockWitnessK,
		ContiguousOnly:       r.ContiguousOnly,
		LivelockSkipped:      r.LivelockSkipped,
		LivelockBoundedFreeK: r.LivelockBoundedFreeK,
		SelfStabilizing:      r.SelfStabilizing,
		CrossValidated:       r.CrossValidated,
		Disagreements:        r.Disagreements,
		ExplicitStates:       r.ExplicitStates,
		ExplicitPeakBytes:    r.ExplicitPeakTableBytes,
		Summary:              r.Summary(),
	}
	if r.Invariant {
		res.InvariantDeadlock = r.InvariantDeadlock.String()
		res.InvariantLivelock = r.InvariantLivelock.String()
		res.InvariantClosure = r.InvariantClosure.String()
		res.InvariantCount = r.InvariantCount
		res.InvariantCertBytes = r.InvariantCertBytes
		res.LivelockProvedByInvariant = r.LivelockProvedByInvariant
	}
	res.InvariantSkipped = r.InvariantSkipped
	return res
}
