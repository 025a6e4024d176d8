// Package cluster is the coordinator/worker distribution layer of the
// verification service: every lrserved owns one coordinator, which holds
// the job queue and journal (internal/service), and Workers pull
// verification tasks from it under time-bounded leases with heartbeat
// renewal. Every Worker runs the same loop; only how it reaches the
// coordinator differs: the in-process workers call the Coordinator
// directly, and an lrserved -join process, registered through the join
// endpoint when the service admits it, calls it over HTTP through a
// Client.
//
// The design extends the paper's compositional thesis to the deployment
// layer: just as a global verdict is assembled from independently checked
// local pieces, a fleet verdict is assembled from independently executed
// jobs, provided the distribution layer tolerates worker loss without
// losing or corrupting any piece. The mechanisms:
//
//   - Leases, not assignments. A dispatched task is held under a lease
//     that expires unless the worker heartbeats. A worker that dies,
//     hangs, or partitions simply stops renewing; the coordinator expires
//     the lease and the job re-enters the service's retry machinery
//     (exponential backoff, attempt accounting, poison quarantine), so a
//     poison spec cannot ping-pong across the fleet forever.
//   - Exactly-once completion. The first of {completion, expiry} wins;
//     a late result from a blackholed-but-alive worker is counted and
//     dropped. Dropping is safe because results are content-addressed:
//     the re-dispatched attempt recomputes the identical verdict.
//   - Cost-based placement. Tasks are placed by the explicit engine's
//     pre-run table estimate: in-process workers share one budget that
//     each grant reserves from, remote workers are matched against their
//     own advertised budgets; when no worker fits, the documented fallback
//     is the coordinator's degrade-over-budget mode (one engine worker, a
//     budget-clamped MaxStates).
//   - Transport neutrality. The worker loop is behind the Coord
//     interface and the engine behind the Runner interface; in-process
//     and joined workers run the same loop and the same runner, and
//     verdicts are byte-identical either way.
//
// The package deliberately does not import internal/service: the service
// owns jobs, journal, retries and the result cache, and drives the
// coordinator through callbacks (Events), so the dependency points one
// way. Workers keep no result cache: every verdict travels back to the
// coordinator, and only the coordinator caches it.
package cluster

import (
	"errors"
	"log"
	"time"

	"paramring/internal/verify"
)

// Dispatch and protocol errors. ErrNoWorker (no registered worker can fit
// the task, and degradation is off) and ErrLeaseExpired (the worker
// stopped renewing) are transient from the service's point of view: the
// retry machinery backs off and re-dispatches, and repeated failures end
// in quarantine. ErrUnknownWorker tells a remote worker to re-join (its
// registration was dropped after a lease expiry); ErrLeaseGone tells it
// the lease it is renewing or completing no longer exists. ErrIDInUse
// refuses a join under the id of a worker of the other kind, in-process
// or joined.
var (
	ErrNoWorker      = errors.New("no worker fits the task")
	ErrLeaseExpired  = errors.New("lease expired")
	ErrWorkerPanic   = errors.New("worker panic")
	ErrUnknownWorker = errors.New("unknown worker (re-join required)")
	ErrLeaseGone     = errors.New("lease gone")
	ErrStopped       = errors.New("coordinator stopped")
	ErrIDInUse       = errors.New("worker id in use by a worker of the other kind")
)

// WorkerInfo is a worker's registration: identity, the advertised
// explicit-table memory budget placement checks estimates against
// (0 = unlimited), and the number of concurrent tasks the worker accepts.
type WorkerInfo struct {
	ID string `json:"id"`
	// MemBudgetBytes caps the pre-run explicit-table estimate of tasks
	// placed on this worker (0 = unlimited).
	MemBudgetBytes uint64 `json:"mem_budget_bytes,omitempty"`
	// Slots is the number of tasks the worker runs concurrently (<= 0
	// selects 1).
	Slots int `json:"slots,omitempty"`
}

func (w WorkerInfo) slots() int {
	if w.Slots <= 0 {
		return 1
	}
	return w.Slots
}

// fits reports whether the worker's advertised budget admits the estimate.
func (w WorkerInfo) fits(estimate uint64) bool {
	return w.MemBudgetBytes == 0 || estimate <= w.MemBudgetBytes
}

// Task is one dispatched verification attempt — everything a worker needs
// to run it, wire-safe for the remote transport.
type Task struct {
	// JobID is the coordinator-side job identity the lease is keyed by.
	JobID string `json:"job_id"`
	// Spec is the canonical dsl.Format rendering of the protocol.
	Spec string `json:"spec"`
	// Options are the job's normalized request options.
	Options verify.RequestOptions `json:"options"`
	// EngineWorkers is the coordinator's explicit-engine worker cap, which
	// the request's Workers hint may only lower.
	EngineWorkers int `json:"engine_workers,omitempty"`
	// Estimate is the pre-run explicit-table byte estimate placement used.
	Estimate uint64 `json:"estimate,omitempty"`
	// DeadlineUnixMS is the job deadline; workers derive their run context
	// from it.
	DeadlineUnixMS int64 `json:"deadline_unix_ms"`
	// Attempt is the service-side attempt number (1 on the first run),
	// threaded through so fault hooks and logs can key on it.
	Attempt int `json:"attempt"`
	// DegradeBudget, when > 0, runs the task under the degrade-over-budget
	// clamps sized to this many table bytes: the server budget for a job
	// whose estimate exceeds it, or the budget of the worker placement had
	// to overload.
	DegradeBudget uint64 `json:"degrade_budget,omitempty"`
}

// Deadline returns the task deadline as a time.Time.
func (t Task) Deadline() time.Time {
	return time.UnixMilli(t.DeadlineUnixMS)
}

// Events are the coordinator's callbacks into its owner (the service):
// journaling and metrics hang off these.
// Nil fields are skipped. Callbacks run outside the coordinator's mutex
// and must not call back into the coordinator synchronously.
type Events struct {
	// LeaseGranted fires on every grant and renewal (renewal=true), before
	// the worker can act on it; remote reports whether the holder is a
	// joined worker rather than an in-process one. The service journals
	// remote holders' lease records here, fsynced, and marks a granted
	// job running. A grant's event returns before its DoneFunc can fire.
	LeaseGranted func(jobID, workerID string, expiry time.Time, renewal, remote bool)
	// LeaseExpired fires when a lease dies unrenewed — the failover signal
	// behind lrserved_cluster_lease_expired_total.
	LeaseExpired func(jobID, workerID string)
	// LateResult fires when a completion arrives for a lease that no
	// longer exists (expired or superseded); the result is dropped.
	LateResult func(jobID, workerID string)
	// WorkerJoined / WorkerLost track registry membership.
	WorkerJoined func(info WorkerInfo)
	WorkerLost   func(id, reason string)
}

// Config tunes a Coordinator. Zero values select the documented defaults.
type Config struct {
	// LeaseTTL is how long a granted or renewed lease lives without a
	// heartbeat (default 10s). It must exceed HeartbeatInterval — the
	// lrserved flag validation enforces this at the CLI boundary.
	LeaseTTL time.Duration
	// HeartbeatInterval is the renewal cadence workers are told to use
	// (default LeaseTTL/4).
	HeartbeatInterval time.Duration
	// LocalMemBudgetBytes is the explicit-table budget the in-process
	// workers share (0 = unlimited). A grant to an in-process worker
	// reserves the task's estimate, clamped to the whole budget so that an
	// over-budget task runs alone; completion, lease expiry and Stop
	// release it. While a reservation does not fit, no in-process worker
	// is eligible and Dispatch waits. Remote workers are placed against
	// their own advertised budgets instead.
	LocalMemBudgetBytes uint64
	// DegradeOverBudget places tasks that fit no worker's budget on the
	// largest-budget worker with the degraded clamps instead of failing
	// the dispatch with ErrNoWorker.
	DegradeOverBudget bool
	// Events are the owner callbacks (see Events).
	Events Events
	// Log receives operational warnings (default: discard-free standard
	// logger with a "cluster: " prefix).
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = c.LeaseTTL / 4
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}
