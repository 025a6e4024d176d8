package service

import (
	"time"

	"paramring/internal/verify"
)

// RequestOptions is the client-facing tuning knob set of a verification
// request; verify owns it and its one translation to verify.Options.
type RequestOptions = verify.RequestOptions

// Request is one verification submission.
type Request struct {
	// Spec is the guarded-commands protocol text (the specs/*.gc dialect).
	Spec string `json:"spec"`
	// Options tunes the verification pipeline.
	Options RequestOptions `json:"options"`
	// Wait, on the HTTP surface, blocks the POST until the job finishes.
	Wait bool `json:"wait,omitempty"`
	// TimeoutMS overrides the server's default per-job deadline (clamped
	// to the server maximum; 0 keeps the default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Result is the JSON projection of a verify.Report that jobs carry and
// the cache stores; verify owns it and its projection.
type Result = verify.Result

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	// StateQueued: accepted, waiting for a verification worker (includes
	// jobs waiting out a retry backoff or waiting for memory budget).
	StateQueued JobState = "queued"
	// StateRunning: a worker is executing the pipeline.
	StateRunning JobState = "running"
	// StateDone: finished with a result (possibly served from cache).
	StateDone JobState = "done"
	// StateFailed: finished without a result (deadline, cancel, engine error).
	StateFailed JobState = "failed"
	// StateQuarantined: every attempt failed transiently (engine panics,
	// injected faults); the job is parked in the poison quarantine —
	// visible via GET /v1/jobs?state=quarantined and persisted in the
	// journal — so one pathological spec cannot livelock the workers.
	StateQuarantined JobState = "quarantined"
)

// Job tracks one submission through the queue. All mutable fields are
// guarded by the owning Service's mutex; read them via snapshot.
type Job struct {
	id       string
	state    JobState
	cached   bool
	result   *Result
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	// attempts counts execution attempts started (1 on the first run);
	// when a transient failure exhausts Config.MaxAttempts the job is
	// quarantined.
	attempts int

	// key is the content address of (canonical spec, normalized options).
	key string
	// spec is the parsed submission, compiled by the worker.
	spec     specHandle
	deadline time.Time
	// timeout is the per-job budget behind deadline, kept so a journal
	// replay can re-anchor the deadline in the new process.
	timeout time.Duration
	// estimate is the pre-run explicit-table byte estimate
	// (verify.EstimatePeakTableBytes) that placement reserves.
	estimate uint64
	// compileNS is the DSL front-end cost paid for this submission (0 on a
	// compiled-spec cache hit); snapshots surface it as JobView.CompileNS.
	compileNS int64
	// degraded marks a job whose estimate alone exceeds the server
	// budget, accepted under Config.DegradeOverBudget: it runs with one
	// engine worker and a budget-sized MaxStates clamp.
	degraded bool
	// journaled records that the submit record is durably in the WAL, so
	// terminal transitions know to append their record.
	journaled bool
	// replayable marks a failure that should be rerun by a restarted
	// process (drain cancel, shutdown during backoff): compaction keeps
	// its submit record pending.
	replayable bool
	// done is closed exactly once when the job reaches a terminal state;
	// doneClosed (under the service mutex) enforces the exactly-once.
	done       chan struct{}
	doneClosed bool
}

// specHandle carries what the worker needs from the parse phase.
type specHandle struct {
	name      string
	canonical string
	options   RequestOptions
}

// JobView is the JSON rendering of a job at one instant. Timestamps are
// RFC 3339 strings, empty until the phase is reached.
type JobView struct {
	ID    string   `json:"id"`
	Name  string   `json:"protocol,omitempty"`
	State JobState `json:"state"`
	// Cached: the result came from the content-addressed cache.
	Cached   bool `json:"cached"`
	Attempts int  `json:"attempts,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	// Replayable marks a failure a restarted process will rerun from the
	// journal (drain cancel, shutdown during backoff).
	Replayable bool   `json:"replayable,omitempty"`
	Error      string `json:"error,omitempty"`
	// CompileNS is the DSL front-end cost (parse + validate + compile to
	// core.Protocol tables) this submission paid, in nanoseconds: 0 when
	// the compiled-spec cache already held the protocol. Aggregate
	// distribution: the lrserved_spec_compile_seconds histogram.
	CompileNS  int64   `json:"compile_ns"`
	Result     *Result `json:"result,omitempty"`
	CreatedAt  string  `json:"created_at"`
	StartedAt  string  `json:"started_at,omitempty"`
	FinishedAt string  `json:"finished_at,omitempty"`
}

// stamp renders a timestamp for JobView ("" while unset).
func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }
