package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the service's instrumentation surface, rendered on /metrics in
// the Prometheus text exposition format. Counters and gauges are lock-free
// atomics on the hot path; histograms take a short mutex per observation.
type Metrics struct {
	JobsSubmitted atomic.Uint64 // every POST accepted into the pipeline
	JobsDone      atomic.Uint64 // terminal: result produced
	JobsFailed    atomic.Uint64 // terminal: error (includes timeouts)
	JobsTimeout   atomic.Uint64 // subset of failed: deadline exceeded
	ParseErrors   atomic.Uint64 // rejected before job creation

	JobsPanicked    atomic.Uint64 // attempts that ended in a recovered engine panic
	JobsRetried     atomic.Uint64 // retry attempts scheduled after transient failures
	JobsQuarantined atomic.Uint64 // jobs moved to the poison quarantine
	JobsReplayed    atomic.Uint64 // jobs reconstructed from the journal at startup

	CacheWriteErrors atomic.Uint64 // write-through failures (job still succeeds)
	JournalErrors    atomic.Uint64 // WAL append/compaction failures, undecodable records skipped at boot

	JobsQueued  atomic.Int64 // gauge: accepted, not yet picked up
	JobsRunning atomic.Int64 // gauge: currently on a worker

	CacheHits      atomic.Uint64
	CacheMisses    atomic.Uint64
	StatesExplored atomic.Uint64 // explicit-engine states, fresh runs only

	// SpecCacheHits / SpecCacheMisses count compiled-spec cache outcomes:
	// a hit means the DSL front end (parse + validate + compile to
	// core.Protocol tables) was skipped for a submission; a miss paid it
	// and recorded the cost in the compile histogram below.
	SpecCacheHits   atomic.Uint64
	SpecCacheMisses atomic.Uint64

	// PeakTableBytes is a high-water gauge of the largest resident
	// explicit-engine per-state table any single verification held (one bit
	// per global state with the packed bitset substrate). Update through
	// RecordPeakTableBytes.
	PeakTableBytes atomic.Uint64

	// InvariantRuns counts verifications where the invariant lane ran to
	// completion; InvariantProved the subset whose livelock verdict was
	// settled by the lane alone (theorems silent or contiguous-only);
	// InvariantDisagreements counts finished verifications whose report
	// carried cross-lane conflicts — a tool-bug alarm that should read 0.
	InvariantRuns          atomic.Uint64
	InvariantProved        atomic.Uint64
	InvariantDisagreements atomic.Uint64

	// InvariantCertBytes is a high-water gauge of the largest canonical
	// certificate any verification produced. Update through
	// RecordInvariantCertBytes.
	InvariantCertBytes atomic.Uint64

	// Cluster counters (all 0 outside coordinator mode). Grants and
	// renewals track the lease journal; expiries are the failover signal —
	// each one means a worker died, hung, or partitioned mid-job and the
	// job re-entered the retry machinery (ClusterRedispatches counts those
	// re-entries, including expired-lease re-dispatch at replay). Late
	// results are completions that arrived after their lease died, counted
	// and dropped — safe, because results are content-addressed.
	ClusterLeasesGranted atomic.Uint64
	ClusterLeaseRenewals atomic.Uint64
	ClusterLeasesExpired atomic.Uint64
	ClusterRedispatches  atomic.Uint64
	ClusterLateResults   atomic.Uint64
	ClusterWorkersJoined atomic.Uint64
	ClusterWorkersLost   atomic.Uint64

	parse   histogram
	verify  histogram
	total   histogram
	compile histogram // spec compile cost, misses only (lrserved_spec_compile_seconds)

	// JournalSyncs counts the journal's group commits, one fsync each;
	// JournalRecords counts the records written to it, including done
	// records, which are written without waiting for a sync. Their ratio
	// is the records each fsync made durable.
	JournalSyncs   atomic.Uint64
	JournalRecords atomic.Uint64
	journal        histogram // one group commit: write plus fsync
}

// RecordPeakTableBytes raises the PeakTableBytes high-water mark to v when
// v exceeds it (CAS-max; safe from concurrent workers).
func (m *Metrics) RecordPeakTableBytes(v uint64) {
	for {
		cur := m.PeakTableBytes.Load()
		if v <= cur || m.PeakTableBytes.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordInvariantCertBytes raises the InvariantCertBytes high-water mark.
func (m *Metrics) RecordInvariantCertBytes(v uint64) {
	for {
		cur := m.InvariantCertBytes.Load()
		if v <= cur || m.InvariantCertBytes.CompareAndSwap(cur, v) {
			return
		}
	}
}

// NewMetrics returns a Metrics with the standard latency buckets.
func NewMetrics() *Metrics {
	m := &Metrics{}
	for _, h := range []*histogram{&m.parse, &m.verify, &m.total, &m.journal} {
		h.bounds = []float64{.0001, .0005, .001, .005, .01, .05, .1, .5, 1, 5, 10, 30}
		h.counts = make([]uint64, len(h.bounds))
	}
	// Spec compiles are microsecond-scale; give the compile histogram its
	// own finer buckets so the compiled-spec cache win stays resolvable.
	m.compile.bounds = []float64{1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 1e-1, 1}
	m.compile.counts = make([]uint64, len(m.compile.bounds))
	return m
}

// ObserveCompile records one cold spec-compile cost (spec-cache misses
// only; hits by definition pay nothing worth observing).
func (m *Metrics) ObserveCompile(d time.Duration) {
	m.compile.observe(d.Seconds())
}

// ObservePhase records one per-phase latency sample (phases: parse, verify,
// total, journal).
func (m *Metrics) ObservePhase(phase string, d time.Duration) {
	switch phase {
	case "parse":
		m.parse.observe(d.Seconds())
	case "verify":
		m.verify.observe(d.Seconds())
	case "total":
		m.total.observe(d.Seconds())
	case "journal":
		m.journal.observe(d.Seconds())
	}
}

// histogram is a fixed-bucket latency histogram (cumulative on render, as
// Prometheus expects).
type histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.n++
}

// write renders the histogram in exposition format. An empty phase emits
// the series without a phase label (single-histogram metrics like
// lrserved_spec_compile_seconds).
func (h *histogram) write(w io.Writer, name, phase string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	label := func(le string) string {
		if phase == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("{phase=%q,le=%q}", phase, le)
	}
	suffix := ""
	if phase != "" {
		suffix = fmt.Sprintf("{phase=%q}", phase)
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, label(trimFloat(b)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, label("+Inf"), h.n)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, suffix, h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, h.n)
}

func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// WriteTo renders the exposition text. The extra gauges map carries
// point-in-time values owned by the Service (queue depth capacity, cache
// entries) so Metrics stays free of back-references.
func (m *Metrics) WriteTo(w io.Writer, extraGauges map[string]float64) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("lrserved_jobs_submitted_total", "Jobs accepted into the pipeline.", m.JobsSubmitted.Load())
	counter("lrserved_jobs_done_total", "Jobs finished with a result.", m.JobsDone.Load())
	counter("lrserved_jobs_failed_total", "Jobs finished with an error.", m.JobsFailed.Load())
	counter("lrserved_jobs_timeout_total", "Jobs that exceeded their deadline.", m.JobsTimeout.Load())
	counter("lrserved_parse_errors_total", "Submissions rejected at parse time.", m.ParseErrors.Load())
	counter("lrserved_jobs_panicked_total", "Attempts that ended in a recovered engine panic.", m.JobsPanicked.Load())
	counter("lrserved_jobs_retried_total", "Retry attempts scheduled after transient failures.", m.JobsRetried.Load())
	counter("lrserved_jobs_quarantined_total", "Jobs moved to the poison quarantine.", m.JobsQuarantined.Load())
	counter("lrserved_jobs_replayed_total", "Jobs replayed from the journal at startup.", m.JobsReplayed.Load())
	counter("lrserved_cache_write_errors_total", "Result write-through failures (the job still succeeds).", m.CacheWriteErrors.Load())
	counter("lrserved_journal_errors_total", "Job-journal append or compaction failures, and undecodable records skipped at replay.", m.JournalErrors.Load())
	counter("lrserved_journal_syncs_total", "Job-journal group commits, one fsync each.", m.JournalSyncs.Load())
	counter("lrserved_journal_records_total", "Records written to the job journal, done records included.", m.JournalRecords.Load())
	counter("lrserved_cache_hits_total", "Verifications served from the result cache.", m.CacheHits.Load())
	counter("lrserved_cache_misses_total", "Verifications that had to run the engine.", m.CacheMisses.Load())
	counter("lrserved_spec_cache_hits_total", "Submissions whose spec compile was served from the compiled-spec cache.", m.SpecCacheHits.Load())
	counter("lrserved_spec_cache_misses_total", "Submissions that paid a cold DSL parse+compile.", m.SpecCacheMisses.Load())
	counter("lrserved_states_explored_total", "Explicit-engine work: global states of the ring sizes checked (d^K each).", m.StatesExplored.Load())
	counter("lrserved_invariant_runs_total", "Verifications where the invariant lane ran to completion.", m.InvariantRuns.Load())
	counter("lrserved_invariant_proved_total", "Livelock verdicts settled by the invariant lane where the theorems were silent.", m.InvariantProved.Load())
	counter("lrserved_invariant_disagreements_total", "Finished verifications whose report carried cross-lane conflicts (tool-bug alarm).", m.InvariantDisagreements.Load())
	counter("lrserved_cluster_lease_granted_total", "Cluster leases granted to workers.", m.ClusterLeasesGranted.Load())
	counter("lrserved_cluster_lease_renewed_total", "Cluster lease heartbeat renewals.", m.ClusterLeaseRenewals.Load())
	counter("lrserved_cluster_lease_expired_total", "Cluster leases that expired unrenewed (worker dead, hung, or partitioned); each triggers a re-dispatch.", m.ClusterLeasesExpired.Load())
	counter("lrserved_cluster_redispatch_total", "Jobs re-entered into the retry machinery after a lease expiry.", m.ClusterRedispatches.Load())
	counter("lrserved_cluster_late_results_total", "Completions dropped because their lease had already expired.", m.ClusterLateResults.Load())
	counter("lrserved_cluster_workers_joined_total", "Workers registered with the coordinator.", m.ClusterWorkersJoined.Load())
	counter("lrserved_cluster_workers_lost_total", "Workers dropped from the registry (lease expiry or clean leave).", m.ClusterWorkersLost.Load())
	gauge("lrserved_jobs_queued", "Jobs waiting for a worker.", float64(m.JobsQueued.Load()))
	gauge("lrserved_jobs_running", "Jobs currently executing.", float64(m.JobsRunning.Load()))
	gauge("lrserved_explicit_peak_table_bytes", "Largest resident explicit-engine state table of any verification.", float64(m.PeakTableBytes.Load()))
	gauge("lrserved_invariant_certificate_bytes", "Largest canonical invariant certificate of any verification.", float64(m.InvariantCertBytes.Load()))
	names := make([]string, 0, len(extraGauges))
	for n := range extraGauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		gauge(n, "See lrserved documentation.", extraGauges[n])
	}
	const hname = "lrserved_phase_duration_seconds"
	fmt.Fprintf(w, "# HELP %s Per-phase latency: parse, verify and total per job, journal per group commit.\n# TYPE %s histogram\n", hname, hname)
	m.parse.write(w, hname, "parse")
	m.verify.write(w, hname, "verify")
	m.total.write(w, hname, "total")
	m.journal.write(w, hname, "journal")
	const cname = "lrserved_spec_compile_seconds"
	fmt.Fprintf(w, "# HELP %s Cold spec parse+compile cost (compiled-spec cache misses).\n# TYPE %s histogram\n", cname, cname)
	m.compile.write(w, cname, "")
}
