// Package service is the long-running verification layer: a bounded job
// queue whose dispatcher places each job under a lease on one of the
// workers of a cluster.Coordinator — Config.Workers in-process workers,
// plus joined remote ones in coordinator mode — that run the verify
// pipeline with per-job deadlines, fronted by a content-addressed result
// cache.
//
// The shape follows how parameterized-verification tooling is consumed in
// practice: clients submit Guarded-Command specs (the specs/*.gc dialect)
// and poll structured verdicts, while repeat submissions of the same
// protocol — the overwhelmingly common case for a shared service — are
// answered from the cache without touching the engine. The cache is keyed
// by the canonical dsl.Format rendering of the spec plus the normalized
// option set, so whitespace, comments, and parenthesization never cause a
// re-verification. A second, compiled-spec cache (verify.SpecCache, keyed
// by the canonical rendering alone) sits in front of the DSL: repeat
// submissions skip parse/validate/compile even when the result cache
// misses — e.g. the same protocol under different option sets — and the
// cold compile cost is observable per job (Result.CompileNS) and in
// aggregate (the lrserved_spec_compile_seconds histogram). cmd/lrserved
// exposes this package over HTTP.
//
// The execution layer is crash-safe and resource-governed:
//
//   - Panic isolation. Each job runs under recover; an engine panic is a
//     failed attempt with the panic value and stack in the job error,
//     never a dead process.
//   - Retry with backoff. Transient failures (panics, injected I/O
//     faults) are retried with exponential backoff and deterministic
//     jitter up to Config.MaxAttempts, then moved to a poison quarantine
//     so one pathological spec cannot livelock the workers.
//   - Durable journal. With -cache-dir set, an append-only JSONL WAL
//     records every engine-bound job, fsynced by group commit before the
//     job is enqueued, and verdicts are appended to results.log; a
//     restart replays unfinished jobs, idempotently, because results are
//     content-addressed.
//   - Memory-aware placement. The in-process workers share one
//     table-bytes budget: each grant reserves the explicit engine's
//     pre-run estimate (verify.EstimatePeakTableBytes), so concurrent jobs
//     queue for budget instead of OOMing, and over-budget jobs are either
//     rejected (503) or run degraded (workers clamped, MaxStates shrunk to
//     fit).
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"paramring/internal/cluster"
	"paramring/internal/corpus"
	"paramring/internal/verify"
)

// Service errors surfaced to submitters. ErrBadSpec wraps parse/compile
// failures (an HTTP 400); ErrQueueFull and ErrOverBudget are backpressure
// (503 with Retry-After); ErrShutdown rejects submissions during drain
// (503). ErrTransient marks an attempt failure as retryable: the retry
// classifier treats any error wrapping it (fault-injection hooks do) like
// an engine panic — backoff, rerun, quarantine after MaxAttempts.
var (
	ErrBadSpec    = errors.New("bad spec")
	ErrQueueFull  = errors.New("queue full")
	ErrOverBudget = errors.New("estimated memory exceeds server budget")
	ErrShutdown   = errors.New("shutting down")
	ErrTransient  = errors.New("transient failure")
)

// Hooks are the service's fault-injection points, nil in production. The
// chaos suite wires deterministic faultinject.Plan decisions into them;
// keeping them as plain closures means internal/faultinject and this
// package never import each other.
type Hooks struct {
	// BeforeVerify runs inside the job's recover scope immediately before
	// the engine. It may sleep (slow-job injection), panic (worker-crash
	// injection), or return a non-nil error, which is treated as a
	// transient I/O failure and retried.
	BeforeVerify func(jobID string, attempt int) error
	// CacheWrite intercepts result write-through. A non-nil error
	// simulates a disk-tier failure: the memory tier still gets the
	// result, the error is counted and logged like a real one.
	CacheWrite func(key string) error
}

// Config tunes a Service. Zero values select the documented defaults.
type Config struct {
	// QueueSize bounds the number of jobs waiting for a worker (default
	// 256). Submissions beyond it fail fast with ErrQueueFull.
	QueueSize int
	// Workers is the number of in-process workers, each a one-slot
	// member of the coordinator, so the number of jobs this process runs
	// at once (default runtime.GOMAXPROCS(0)). A negative value starts
	// none: a coordinator that only remote workers serve, which New
	// accepts only with Cluster set.
	Workers int
	// EngineWorkers is the explicit-engine worker count handed to each
	// job's verify.Options (default 1: with a full pool of job-level
	// workers, intra-job parallelism only adds contention; raise it for a
	// latency-oriented deployment with few concurrent clients).
	EngineWorkers int
	// DefaultTimeout is the per-job deadline when the request does not
	// set one (default 60s). The deadline is anchored at submission, so
	// queue wait counts against it.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-supplied deadlines (default 10m).
	MaxTimeout time.Duration
	// CacheSize bounds the in-memory result cache entries (default 1024).
	CacheSize int
	// SpecCacheSize bounds the compiled-spec cache entries (default 1024).
	// The spec cache memoizes the DSL front end — parse, validation, and
	// the core.Protocol tables — keyed by the canonical dsl.Format
	// rendering, so repeat submissions and sweep variants of one protocol
	// skip compilation even when the result cache misses.
	SpecCacheSize int
	// CacheDir, when non-empty, persists results in the append-only
	// <CacheDir>/results.log, one line per verdict, AND enables the
	// durable job journal (<CacheDir>/journal.wal), both surviving
	// restarts.
	CacheDir string

	// MaxAttempts bounds how many times a transiently-failed job (engine
	// panic, injected transient fault) runs before quarantine (default
	// 3). A restart resets the attempt budget: replayed jobs start over.
	MaxAttempts int
	// RetryBaseDelay is the backoff unit (default 100ms): attempt n waits
	// RetryBaseDelay << (n-1), capped at 30s, with deterministic ±50%
	// jitter derived from the job's content address.
	RetryBaseDelay time.Duration

	// MemoryBudgetBytes, when > 0, caps the summed pre-run explicit-table
	// estimates of the jobs the in-process workers run at once (0 =
	// unlimited); placement reserves each grant's estimate from it.
	// Remote workers advertise budgets of their own.
	MemoryBudgetBytes uint64
	// DegradeOverBudget accepts jobs whose estimate alone exceeds the
	// budget and runs them degraded — engine workers clamped to 1 and
	// verify MaxStates shrunk so an oversized instance fails construction
	// with a clean error instead of OOMing. When false (the default) such
	// submissions are rejected with ErrOverBudget.
	DegradeOverBudget bool

	// LeaseTTL is how long a lease survives without a heartbeat (default
	// 10s). Must exceed HeartbeatInterval; cmd/lrserved validates this at
	// the flag boundary.
	LeaseTTL time.Duration
	// HeartbeatInterval is the renewal cadence (default LeaseTTL/4).
	HeartbeatInterval time.Duration

	// Cluster, when non-nil, runs the service in coordinator mode: remote
	// workers may join over HTTP (Handler mounts /cluster/v1/*). Without
	// it the in-process workers are the only ones. See ClusterConfig.
	Cluster *ClusterConfig

	// Hooks are fault-injection points (nil = none).
	Hooks *Hooks
	// Log receives operational warnings — cache write-through failures,
	// journal append errors, quarantine events (default: standard logger
	// with an "lrserved: " prefix).
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	switch {
	case c.Workers == 0:
		c.Workers = runtime.GOMAXPROCS(0)
	case c.Workers < 0:
		c.Workers = 0
	}
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = 1
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 100 * time.Millisecond
	}
	if c.Log == nil {
		c.Log = log.New(os.Stderr, "lrserved: ", log.LstdFlags)
	}
	return c
}

// Service is the verification service. Create with New, then Start; submit
// with Submit; stop with Shutdown.
type Service struct {
	cfg     Config
	metrics *Metrics
	cache   *resultCache
	specs   *verify.SpecCache   // compiled-spec cache in front of the DSL
	memos   *corpus.FamilyMemos // per-family skeleton LTG + verdict memo, shared across jobs
	wal     *journal            // nil without CacheDir

	// runner executes every in-process attempt.
	runner cluster.Runner

	// The lease coordinator every job is dispatched through, and the
	// in-process workers Start registers with it.
	coord   *cluster.Coordinator
	workers []*cluster.LocalWorker

	queue     chan *Job // the dispatcher's input
	runCtx    context.Context
	cancelRun context.CancelFunc
	wg        sync.WaitGroup

	batches batchState // in-memory batch index over jobs (not journaled)

	mu           sync.Mutex
	jobs         map[string]*Job
	order        []string // job ids in creation order, for retention eviction
	nextID       uint64
	closed       bool
	retries      map[string]*time.Timer // jobs waiting out a backoff
	cacheErrSeen map[string]bool        // distinct cache write errors already logged
}

// maxRetainedJobs bounds the id -> job index: once it is reached, the
// oldest terminal jobs are forgotten down to evictDownTo (their results
// live on in the cache, their quarantine records in the journal), one
// batch per maxRetainedJobs - evictDownTo submissions. The newest
// keptNewestJobs jobs are always kept, and live jobs are never evicted —
// they are bounded by queue size + workers.
const (
	maxRetainedJobs = 4096
	evictDownTo     = maxRetainedJobs * 3 / 4
	keptNewestJobs  = maxRetainedJobs - evictDownTo
)

// closedDone is the done channel of every job answered from the cache at
// submission: such a job is terminal from the start, so it shares one
// closed channel instead of making and closing its own.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// maxLoggedCacheErrors bounds the once-per-distinct-error log dedup map;
// past it new distinct errors are still counted, just not logged.
const maxLoggedCacheErrors = 64

// New validates the configuration, builds a stopped Service, and — when a
// cache directory is configured — replays the job journal: submissions
// that were queued or running when the previous process died are
// reconstructed under their original ids and re-enqueued (Start picks
// them up), and quarantined jobs reappear in the index so the poison
// ledger survives restarts.
func New(cfg Config) (*Service, error) {
	if cfg.Workers < 0 && cfg.Cluster == nil {
		return nil, errors.New("service: Workers < 0 starts no in-process worker, which needs Cluster so remote workers can join")
	}
	cfg = cfg.withDefaults()
	cache, err := newResultCache(cfg.CacheSize, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	var (
		wal      *journal
		recovery replayState
	)
	if cfg.CacheDir != "" {
		var recs []journalRecord
		wal, recs, err = openJournal(filepath.Join(cfg.CacheDir, "journal.wal"))
		if err != nil {
			cache.close()
			return nil, err
		}
		recovery = reduceJournal(recs)
	}
	ctx, cancel := context.WithCancel(context.Background())
	queueCap := cfg.QueueSize
	if n := len(recovery.pending); n > queueCap {
		// Replay must never drop a journaled job: grow the buffer for
		// this boot. New submissions still see the configured bound.
		queueCap = n
	}
	s := &Service{
		cfg:          cfg,
		metrics:      NewMetrics(),
		cache:        cache,
		specs:        verify.NewSpecCache(cfg.SpecCacheSize),
		memos:        corpus.NewFamilyMemos(0),
		wal:          wal,
		queue:        make(chan *Job, queueCap),
		runCtx:       ctx,
		cancelRun:    cancel,
		jobs:         make(map[string]*Job),
		retries:      make(map[string]*time.Timer),
		cacheErrSeen: make(map[string]bool),
	}
	s.runner = &cluster.LocalRunner{Specs: s.specs, Memos: s.memos}
	if wal != nil {
		wal.metrics = s.metrics
		for _, err := range wal.skipped {
			s.metrics.JournalErrors.Add(1)
			cfg.Log.Printf("journal: skipped undecodable record: %v", err)
		}
	}
	// Before replay: recovered leases are reinstalled on the coordinator.
	s.initCluster()
	if err := s.replay(recovery); err != nil {
		cancel()
		if wal != nil {
			wal.close()
		}
		cache.close()
		return nil, err
	}
	return s, nil
}

// replay reconstructs journaled jobs into the index and queue.
func (s *Service) replay(st replayState) error {
	for _, rec := range append(append([]journalRecord{}, st.pending...), st.quarantined...) {
		if n, err := strconv.ParseUint(strings.TrimPrefix(rec.ID, "job-"), 10, 64); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	for _, rec := range st.quarantined {
		j := s.jobFromRecord(rec)
		if j == nil {
			continue
		}
		j.state = StateQuarantined
		j.err = st.reasons[rec.ID]
		j.finished = time.Now()
		j.doneClosed = true
		close(j.done)
		s.indexLocked(j)
	}
	for _, rec := range st.pending {
		j := s.jobFromRecord(rec)
		if j == nil {
			// A journal entry this binary cannot rebuild (e.g. written by
			// a newer dialect) is terminal-failed rather than silently
			// dropped, so the WAL does not replay it forever.
			s.journalAppend(journalRecord{Op: opFail, ID: rec.ID, Error: "unreplayable journal record"})
			continue
		}
		if res, ok := s.cache.Get(j.key); ok {
			// The result landed before the crash: the replay is an
			// instant content-addressed cache hit.
			s.metrics.JobsReplayed.Add(1)
			s.metrics.CacheHits.Add(1)
			s.metrics.JobsDone.Add(1)
			j.state = StateDone
			j.cached = true
			j.result = res
			j.finished = time.Now()
			j.doneClosed = true
			close(j.done)
			s.indexLocked(j)
			s.journalDone(j.id)
			continue
		}
		if lr, hasLease := st.leases[rec.ID]; hasLease {
			if expiry := time.UnixMilli(lr.ExpireAtMS); time.Now().Before(expiry) {
				// The lease was live when the coordinator died: reinstall it.
				// If the worker is still alive it re-joins and completes;
				// otherwise the expiry re-dispatches the job exactly once.
				s.recoverLease(j, lr.Worker, expiry)
				continue
			}
			// Lease already expired at boot: this re-enqueue IS the one
			// re-dispatch the expiry owes the job.
			s.metrics.ClusterLeasesExpired.Add(1)
			s.metrics.ClusterRedispatches.Add(1)
			s.observeCluster("redispatch", rec.ID, lr.Worker)
		}
		s.metrics.JobsReplayed.Add(1)
		j.state = StateQueued
		s.indexLocked(j)
		s.queue <- j // sized for all pending records in New
		s.metrics.JobsQueued.Add(1)
	}
	return nil
}

// jobFromRecord rebuilds a Job from a journal submit record, or nil when
// the spec no longer parses (a dialect change across the restart).
func (s *Service) jobFromRecord(rec journalRecord) *Job {
	if rec.Spec == "" {
		return nil
	}
	// Replay goes through the compiled-spec cache too: journaled specs are
	// canonical renderings, so the replayed protocols warm the cache the
	// re-enqueued jobs are about to execute against.
	cs, _, err := s.specs.Compile(rec.Spec)
	if err != nil {
		return nil
	}
	var opts RequestOptions
	if rec.Options != nil {
		opts = *rec.Options
	}
	opts = opts.Normalize()
	timeout := time.Duration(rec.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	now := time.Now()
	j := &Job{
		id:        rec.ID,
		key:       cacheKey(rec.Spec, opts),
		spec:      specHandle{name: cs.Name, canonical: rec.Spec, options: opts},
		created:   now,
		deadline:  now.Add(timeout), // re-anchored: the old anchor died with the old process
		timeout:   timeout,
		estimate:  verify.EstimatePeakTableBytes(cs.Protocol, opts.EngineOptions(s.cfg.EngineWorkers, 0)),
		journaled: true,
		done:      make(chan struct{}),
	}
	j.degraded = s.cfg.MemoryBudgetBytes > 0 && j.estimate > s.cfg.MemoryBudgetBytes
	return j
}

// Metrics returns the service's instrumentation.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Submit parses, canonicalizes, and either answers req from the cache
// (returning an already-done Job) or journals and enqueues it. The
// returned error is ErrBadSpec-wrapped for malformed specs, ErrQueueFull
// under backpressure, ErrOverBudget when the job's memory estimate alone
// exceeds the server budget (and degraded mode is off), ErrShutdown
// during drain.
func (s *Service) Submit(req Request) (*Job, error) {
	jobs, errs := s.submitMany([]Request{req})
	return jobs[0], errs[0]
}

// submitMany submits every request as Submit describes and returns each
// one's job or error, index-aligned with reqs. Each request is answered
// from the cache or indexed on its own; then the submit records of all
// the jobs that must run go to the journal in one append, one fsync,
// before any of them is enqueued.
func (s *Service) submitMany(reqs []Request) ([]*Job, []error) {
	jobs := make([]*Job, len(reqs))
	errs := make([]error, len(reqs))
	var recs []journalRecord
	var pending []int // indices of the jobs to journal and enqueue
	for i, req := range reqs {
		j, err := s.admit(req)
		jobs[i], errs[i] = j, err
		if err == nil && !j.cached {
			pending = append(pending, i)
			recs = append(recs, submitRecord(j))
		}
	}
	if len(pending) == 0 {
		return jobs, errs
	}

	// Journal before enqueue: once a client holds a job id, a crash must
	// not lose the job.
	journaled := s.journalAppend(recs...)

	// Shutdown may have begun while the submit records were being written:
	// stop() sets closed under s.mu and closes the queue after unlocking,
	// so closed must be re-read under the same lock as the send. The jobs
	// are already indexed, so journaled is published under s.mu too: the
	// journal compaction of Shutdown reads it. The compensating fail
	// records on the refusal path keep the WAL from replaying jobs the
	// clients were told to resubmit.
	var refused []journalRecord
	s.mu.Lock()
	for _, i := range pending {
		j := jobs[i]
		j.journaled = journaled
		if !s.closed {
			select {
			case s.queue <- j:
				s.metrics.JobsQueued.Add(1)
				continue
			default:
			}
		}
		refusal := ErrQueueFull
		if s.closed {
			refusal = ErrShutdown
		}
		delete(s.jobs, j.id)
		jobs[i], errs[i] = nil, refusal
		refused = append(refused, journalRecord{Op: opFail, ID: j.id, Error: refusal.Error()})
	}
	s.mu.Unlock()
	if journaled && len(refused) > 0 {
		s.journalAppend(refused...)
	}
	return jobs, errs
}

// admit compiles req and either answers it from the cache, returning a
// done job, or indexes a queued job for submitMany to journal and enqueue.
func (s *Service) admit(req Request) (*Job, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrShutdown
	}

	t0 := time.Now()
	// The compiled-spec cache fronts the DSL: a hit skips parse, validation
	// ("parses but writes outside the window/domain" must be a 400, not a
	// failed job — compile errors surface here either way), and the
	// core.Protocol table build; a miss pays them once per canonical spec.
	cs, specHit, err := s.specs.Compile(req.Spec)
	if err != nil {
		s.metrics.ParseErrors.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	compileNS := int64(0)
	if specHit {
		s.metrics.SpecCacheHits.Add(1)
	} else {
		s.metrics.SpecCacheMisses.Add(1)
		s.metrics.ObserveCompile(time.Duration(cs.CompileNS))
		compileNS = cs.CompileNS
	}
	canonical := cs.Canonical
	opts := req.Options.Normalize()
	key := cacheKey(canonical, opts)
	estimate := verify.EstimatePeakTableBytes(cs.Protocol, opts.EngineOptions(s.cfg.EngineWorkers, 0))
	s.metrics.ObservePhase("parse", time.Since(t0))

	degraded := false
	if budget := s.cfg.MemoryBudgetBytes; budget > 0 && estimate > budget {
		if !s.cfg.DegradeOverBudget {
			if _, ok := s.cache.Get(key); !ok {
				return nil, fmt.Errorf("%w: estimate %d bytes, budget %d bytes", ErrOverBudget, estimate, budget)
			}
			// A cached verdict needs no memory; fall through to the hit.
		} else {
			degraded = true
		}
	}
	s.metrics.JobsSubmitted.Add(1)

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Clamp before converting: past MaxInt64 nanoseconds the product
		// wraps to a deadline in the past.
		timeout = s.cfg.MaxTimeout
		if ms := time.Duration(req.TimeoutMS); ms <= s.cfg.MaxTimeout/time.Millisecond {
			timeout = ms * time.Millisecond
		}
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	j := &Job{
		key:       key,
		spec:      specHandle{name: cs.Name, canonical: canonical, options: opts},
		created:   t0,
		deadline:  t0.Add(timeout),
		timeout:   timeout,
		estimate:  estimate,
		degraded:  degraded,
		compileNS: compileNS,
	}

	if res, ok := s.cache.Get(key); ok {
		s.metrics.CacheHits.Add(1)
		s.metrics.JobsDone.Add(1)
		s.mu.Lock()
		j.id = s.newIDLocked()
		j.state = StateDone
		j.cached = true
		j.result = res
		j.finished = time.Now()
		j.done = closedDone
		j.doneClosed = true
		s.indexLocked(j)
		s.mu.Unlock()
		s.metrics.ObservePhase("total", time.Since(t0))
		return j, nil
	}
	s.metrics.CacheMisses.Add(1)
	j.done = make(chan struct{})

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShutdown
	}
	j.id = s.newIDLocked()
	j.state = StateQueued
	s.indexLocked(j)
	return j, nil
}

// journalAppend writes recs to the WAL if one is configured and waits for
// their fsync, reporting whether they are durably on disk. Append
// failures are counted and logged, never fatal: the journal is a recovery
// upgrade, not a correctness dependency of the running process.
func (s *Service) journalAppend(recs ...journalRecord) bool {
	if s.wal == nil {
		return false
	}
	return s.journalResult(s.wal.append(recs...), recs)
}

// journalDone writes a job's done record without waiting for its fsync
// (see journal.write): a lost done record only replays a finished job.
func (s *Service) journalDone(id string) {
	rec := journalRecord{Op: opDone, ID: id}
	s.journalResult(s.wal.write(rec), []journalRecord{rec})
}

func (s *Service) journalResult(err error, recs []journalRecord) bool {
	if err == nil {
		return true
	}
	s.metrics.JournalErrors.Add(1)
	more := ""
	if len(recs) > 1 {
		more = fmt.Sprintf(" (and %d more)", len(recs)-1)
	}
	s.cfg.Log.Printf("journal append %s %s%s: %v", recs[0].Op, recs[0].ID, more, err)
	return false
}

func (s *Service) newIDLocked() string {
	s.nextID++
	return fmt.Sprintf("job-%06d", s.nextID)
}

// indexLocked stores j under its id and appends the id to s.order, the
// two together, so every indexed job can be listed and evicted. Once the
// index reaches maxRetainedJobs ids it evicts a batch of them.
func (s *Service) indexLocked(j *Job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.order) >= maxRetainedJobs {
		s.evictTerminalLocked()
	}
}

// evictTerminalLocked drops the oldest finished jobs until the index holds
// at most evictDownTo of them — done/failed first, quarantined only if
// that is not enough (the poison ledger is the part operators come back
// for, and it survives in the journal regardless). The newest
// keptNewestJobs ids are never evicted, and neither is a live job. Ids of
// jobs no longer indexed (refused submissions) are dropped on the way.
func (s *Service) evictTerminalLocked() {
	old := s.order[:len(s.order)-keptNewestJobs]
	newest := s.order[len(old):]
	for _, evictable := range []func(*Job) bool{
		func(j *Job) bool { return j.state == StateDone || j.state == StateFailed },
		func(j *Job) bool { return j.state == StateQuarantined },
	} {
		kept := old[:0]
		for _, id := range old {
			j, ok := s.jobs[id]
			if !ok {
				continue
			}
			if len(s.jobs) > evictDownTo && evictable(j) {
				delete(s.jobs, id)
				continue
			}
			kept = append(kept, id)
		}
		old = kept
		if len(s.jobs) <= evictDownTo {
			break
		}
	}
	s.order = append(old, newest...)
}

// beforeVerify is the BeforeVerify hook site every in-process attempt runs
// through, inside cluster.RunTask's recover boundary: a hook error is a
// transient failure, a hook panic a captured worker panic.
func (s *Service) beforeVerify(t cluster.Task) error {
	if h := s.cfg.Hooks; h != nil && h.BeforeVerify != nil {
		if err := h.BeforeVerify(t.JobID, t.Attempt); err != nil {
			return fmt.Errorf("%w: %v", ErrTransient, err)
		}
	}
	return nil
}

// taskForJob projects one attempt of a job into the task every runner
// executes, with the server's engine-worker cap and, for a job whose
// estimate exceeds the server budget, the degraded clamp.
func (s *Service) taskForJob(j *Job, attempt int) cluster.Task {
	t := cluster.Task{
		JobID:          j.id,
		Spec:           j.spec.canonical,
		Options:        j.spec.options,
		EngineWorkers:  s.cfg.EngineWorkers,
		Estimate:       j.estimate,
		DeadlineUnixMS: j.deadline.UnixMilli(),
		Attempt:        attempt,
	}
	if j.degraded {
		t.DegradeBudget = s.cfg.MemoryBudgetBytes
	}
	return t
}

// finishAttempt classifies one attempt's outcome and routes it: done,
// terminal failure, retry, or quarantine. The job's done channel is
// closed on every terminal path and only there.
func (s *Service) finishAttempt(j *Job, res *Result, err error) {
	switch {
	case err == nil:
		s.complete(j, res)
	case errors.Is(err, context.Canceled):
		// Only the server drain cancels runCtx: fail the job in this
		// process but leave its journal record pending so a restart
		// replays it — "in-flight jobs finish or journal as retryable".
		s.finalize(j, StateFailed, "canceled by shutdown; journaled for replay", true)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.JobsTimeout.Add(1)
		s.failTerminal(j, fmt.Sprintf("deadline exceeded after %v", time.Since(j.created).Round(time.Millisecond)))
	case errors.Is(err, cluster.ErrWorkerPanic):
		s.metrics.JobsPanicked.Add(1)
		s.retryOrQuarantine(j, err)
	case errors.Is(err, ErrTransient):
		s.retryOrQuarantine(j, err)
	default:
		// Deterministic engine errors (state guard, instance shape):
		// retrying cannot change them.
		s.failTerminal(j, err.Error())
	}
}

// complete finalizes a successful attempt: result cached, journaled done.
func (s *Service) complete(j *Job, res *Result) {
	s.metrics.StatesExplored.Add(res.ExplicitStates)
	s.metrics.RecordPeakTableBytes(res.ExplicitPeakBytes)
	if res.InvariantDeadlock != "" { // set exactly when the invariant lane ran
		s.metrics.InvariantRuns.Add(1)
		s.metrics.RecordInvariantCertBytes(uint64(res.InvariantCertBytes))
		if res.LivelockProvedByInvariant {
			s.metrics.InvariantProved.Add(1)
		}
	}
	if len(res.Disagreements) > 0 {
		s.metrics.InvariantDisagreements.Add(1)
	}
	s.metrics.JobsDone.Add(1)
	// Write-through before the terminal journal record, so a process kill
	// never leaves a done record without its result line. A power loss
	// can: neither record is fsynced, and when the done record outlives
	// the result line, the verdict is recomputed on demand — one lost
	// re-verification, never a wrong verdict.
	s.writeThrough(j.key, res)
	s.mu.Lock()
	j.state = StateDone
	j.result = res
	j.err = ""
	j.finished = time.Now()
	closeNow := !j.doneClosed
	j.doneClosed = true
	s.mu.Unlock()
	if j.journaled {
		s.journalDone(j.id) // written before done is closed; not waited on
	}
	if closeNow {
		close(j.done)
	}
	s.metrics.ObservePhase("total", time.Since(j.created))
}

// failTerminal finalizes a deterministic failure: journaled as fail so a
// restart does not replay it.
func (s *Service) failTerminal(j *Job, msg string) {
	s.finalize(j, StateFailed, msg, false)
	if j.journaled {
		s.journalAppend(journalRecord{Op: opFail, ID: j.id, Error: msg})
	}
	s.metrics.ObservePhase("total", time.Since(j.created))
}

// finalize moves j to a terminal state and closes done exactly once.
// replayable failures keep their journal record pending (no terminal op),
// which is precisely what makes them survive the restart.
func (s *Service) finalize(j *Job, state JobState, msg string, replayable bool) {
	s.mu.Lock()
	j.state = state
	j.err = msg
	j.replayable = replayable
	j.finished = time.Now()
	closeNow := !j.doneClosed
	j.doneClosed = true
	s.mu.Unlock()
	if closeNow {
		if state == StateFailed {
			s.metrics.JobsFailed.Add(1)
		}
		close(j.done)
	}
}

// retryOrQuarantine handles a transient attempt failure: schedule the
// next attempt with exponential backoff and deterministic jitter, or —
// once MaxAttempts is spent — move the job to the poison quarantine.
func (s *Service) retryOrQuarantine(j *Job, cause error) {
	msg := cause.Error()
	s.mu.Lock()
	attempts := j.attempts
	j.err = msg // visible while the job waits out its backoff
	s.mu.Unlock()

	if attempts >= s.cfg.MaxAttempts {
		s.metrics.JobsQuarantined.Add(1)
		s.cfg.Log.Printf("quarantining %s (%s) after %d attempts: %s",
			j.id, j.spec.name, attempts, firstLine(msg))
		s.finalize(j, StateQuarantined, msg, false)
		if j.journaled {
			s.journalAppend(journalRecord{Op: opQuarantine, ID: j.id, Error: msg})
		}
		s.metrics.ObservePhase("total", time.Since(j.created))
		return
	}

	delay := backoffDelay(s.cfg.RetryBaseDelay, attempts, j.key)
	if time.Now().Add(delay).After(j.deadline) {
		// The backoff would outlive the deadline; fail now with the real
		// cause instead of a synthetic timeout later.
		s.metrics.JobsTimeout.Add(1)
		s.failTerminal(j, fmt.Sprintf("deadline would expire during retry backoff; last failure: %s", firstLine(msg)))
		return
	}

	s.metrics.JobsRetried.Add(1)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.finalize(j, StateFailed, "shutting down before retry; journaled for replay", true)
		return
	}
	j.state = StateQueued
	s.retries[j.id] = time.AfterFunc(delay, func() { s.requeue(j) })
	s.mu.Unlock()
}

// requeue puts a backed-off job back on the queue when its timer fires.
func (s *Service) requeue(j *Job) {
	s.mu.Lock()
	delete(s.retries, j.id)
	if s.closed {
		s.mu.Unlock()
		s.finalize(j, StateFailed, "shutting down before retry; journaled for replay", true)
		return
	}
	select {
	case s.queue <- j:
		s.metrics.JobsQueued.Add(1)
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		// The queue is saturated at retry time; rather than spin another
		// timer forever, fail replayably — the journal still has the job.
		s.finalize(j, StateFailed, "queue full at retry; journaled for replay", true)
	}
}

// backoffDelay is base << (attempt-1) capped at 30s, jittered to
// [50%,150%) by a hash of the job's content address and the attempt — so
// two pathological jobs never thundering-herd in lockstep, yet a given
// schedule is reproducible.
func backoffDelay(base time.Duration, attempt int, key string) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt && d < 30*time.Second; i++ {
		d *= 2
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	fmt.Fprintf(h, "|%d", attempt)
	frac := float64(h.Sum64()>>11) / (1 << 53) // [0,1)
	return time.Duration(float64(d) * (0.5 + frac))
}

// writeThrough stores the result, counts and logs (once per distinct
// error) any disk-tier failure, and never fails the job: a lost disk
// write only costs a future re-verification.
func (s *Service) writeThrough(key string, res *Result) {
	var err error
	if h := s.cfg.Hooks; h != nil && h.CacheWrite != nil {
		if err = h.CacheWrite(key); err != nil {
			s.cache.insert(key, res) // the memory tier still holds the result
		}
	}
	if err == nil {
		err = s.cache.Put(key, res)
	}
	if err == nil {
		return
	}
	s.metrics.CacheWriteErrors.Add(1)
	msg := err.Error()
	s.mu.Lock()
	logIt := !s.cacheErrSeen[msg] && len(s.cacheErrSeen) < maxLoggedCacheErrors
	if logIt {
		s.cacheErrSeen[msg] = true
	}
	s.mu.Unlock()
	if logIt {
		s.cfg.Log.Printf("cache write-through failed (logged once per distinct error): %v", err)
	}
}

// firstLine trims a multi-line error (panic stacks) for log lines.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Job looks up a job by id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns point-in-time views of every retained job, in creation
// order, optionally filtered by state ("" = all). This is the API behind
// GET /v1/jobs?state=quarantined — the poison-quarantine workflow.
func (s *Service) Jobs(state JobState) []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	views := make([]JobView, 0, len(s.jobs))
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok || (state != "" && j.state != state) {
			continue
		}
		views = append(views, s.viewLocked(j))
	}
	return views
}

// Snapshot renders a consistent point-in-time view of a job.
func (s *Service) Snapshot(j *Job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked(j)
}

func (s *Service) viewLocked(j *Job) JobView {
	return JobView{
		ID:         j.id,
		Name:       j.spec.name,
		State:      j.state,
		Cached:     j.cached,
		Attempts:   j.attempts,
		Degraded:   j.degraded,
		Replayable: j.replayable,
		Error:      j.err,
		CompileNS:  j.compileNS,
		Result:     j.result,
		CreatedAt:  stamp(j.created),
		StartedAt:  stamp(j.started),
		FinishedAt: stamp(j.finished),
	}
}

// Stats is the health summary served on /healthz.
type Stats struct {
	Queued           int    `json:"queued"`
	Running          int    `json:"running"`
	Workers          int    `json:"workers"`
	QueueCap         int    `json:"queue_capacity"`
	CacheEntries     int    `json:"cache_entries"`
	Quarantined      int    `json:"quarantined"`
	CacheWriteErrors uint64 `json:"cache_write_errors"`
	MemBudgetBytes   uint64 `json:"mem_budget_bytes"`
	MemInUseBytes    uint64 `json:"mem_in_use_bytes"`
	// SpecCache reports the compiled-spec cache: entries resident and the
	// cache-internal hit/miss counters, which include the workers' own
	// canonical-text compiles. The lrserved_spec_cache_{hits,misses}_total
	// metrics count submissions only — they are the front-end skip rate.
	SpecCache verify.SpecCacheStats `json:"spec_cache"`
	// Coordinator occupancy: registered workers (in-process and joined)
	// and outstanding leases.
	ClusterWorkers int `json:"cluster_workers"`
	ClusterLeases  int `json:"cluster_leases"`
}

// Stats returns current occupancy.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	quarantined := 0
	for _, j := range s.jobs {
		if j.state == StateQuarantined {
			quarantined++
		}
	}
	s.mu.Unlock()
	return Stats{
		Queued:           int(s.metrics.JobsQueued.Load()),
		Running:          int(s.metrics.JobsRunning.Load()),
		Workers:          s.cfg.Workers,
		QueueCap:         s.cfg.QueueSize,
		CacheEntries:     s.cache.Len(),
		Quarantined:      quarantined,
		CacheWriteErrors: s.metrics.CacheWriteErrors.Load(),
		MemBudgetBytes:   s.cfg.MemoryBudgetBytes,
		MemInUseBytes:    s.coord.LocalMemInUse(),
		SpecCache:        s.specs.Stats(),
		ClusterWorkers:   len(s.coord.Workers()),
		ClusterLeases:    s.coord.Outstanding(),
	}
}

// Shutdown drains gracefully: new submissions are rejected, queued jobs
// run to completion, jobs waiting out a retry backoff are failed in this
// process but kept pending in the journal (a restart replays them), and
// the call blocks until the workers exit. When ctx expires first,
// in-flight jobs are canceled — they too finish as replayable failures —
// and Shutdown still waits for the workers before returning ctx's error.
// The journal is then compacted down to replayable and quarantined jobs
// and the result log closed; the disk cache is write-through, so every
// completed result is already in it.
func (s *Service) Shutdown(ctx context.Context) error {
	err := s.stop(ctx)
	s.compactJournal()
	s.cache.close()
	return err
}

// stop is the drain half of Shutdown, shared with the chaos harness.
func (s *Service) stop(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	var backedOff []*Job
	for id, t := range s.retries {
		t.Stop()
		delete(s.retries, id)
		if j, ok := s.jobs[id]; ok {
			backedOff = append(backedOff, j)
		}
	}
	s.mu.Unlock()
	for _, j := range backedOff {
		s.finalize(j, StateFailed, "shutting down before retry; journaled for replay", true)
	}
	if !already {
		close(s.queue)
	}
	// The dispatcher drains the queue, then the leases it placed resolve:
	// workers complete them, or ctx expires and cancelRun cancels the
	// in-process attempts.
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.coord.Quiesce(ctx)
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.cancelRun()
	<-drained
	s.stopCluster()
	return err
}

// compactJournal rewrites the WAL to the minimal replay set: pending
// submits for replayable failures and the submit+quarantine pairs of the
// poison ledger.
func (s *Service) compactJournal() {
	if s.wal == nil {
		return
	}
	var recs []journalRecord
	s.mu.Lock()
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok || !j.journaled {
			continue
		}
		switch {
		case j.replayable, j.state == StateQuarantined:
			recs = append(recs, submitRecord(j))
			if j.state == StateQuarantined {
				recs = append(recs, journalRecord{Op: opQuarantine, ID: j.id, Error: j.err})
			}
		}
	}
	s.mu.Unlock()
	if err := s.wal.compact(recs); err != nil {
		s.metrics.JournalErrors.Add(1)
		s.cfg.Log.Printf("journal compaction: %v", err)
	}
}

// submitRecord is the journal record a restart rebuilds j from.
func submitRecord(j *Job) journalRecord {
	opts := j.spec.options
	return journalRecord{
		Op: opSubmit, ID: j.id, Name: j.spec.name, Spec: j.spec.canonical,
		Options: &opts, TimeoutMS: j.timeout.Milliseconds(),
	}
}

// crash stops the service the unclean way — queue closed, in-flight work
// canceled immediately, journal left uncompacted — simulating a process
// kill for the chaos suite. Exported to tests only via package access.
func (s *Service) crash() {
	s.cancelRun()
	s.mu.Lock()
	already := s.closed
	s.closed = true
	var backedOff []*Job
	for id, t := range s.retries {
		t.Stop()
		delete(s.retries, id)
		if j, ok := s.jobs[id]; ok {
			backedOff = append(backedOff, j)
		}
	}
	s.mu.Unlock()
	for _, j := range backedOff {
		s.finalize(j, StateFailed, "killed; journaled for replay", true)
	}
	if !already {
		close(s.queue)
	}
	s.wg.Wait()
	s.stopCluster()
	if s.wal != nil {
		s.wal.close()
	}
	s.cache.close()
}
