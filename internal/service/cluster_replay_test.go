package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paramring/internal/cluster"
	"paramring/internal/corpus"
	"paramring/internal/verify"
)

// Crash/restart coverage for the cluster path: coordinator restart
// reconstructs outstanding leases from the journal, expired leases
// re-dispatch exactly once, the quarantine/cache-hit counters never
// double-count across the restart, and no kill point inside a lease
// record — byte by byte — can lose a job or wedge replay.

// clusterDirConfig builds the shared restart configuration: same cache
// dir, 1 in-process worker, and the given lease timings. hooks apply to
// this instance only — restarted instances get their own config.
func clusterDirConfig(dir string, ttl, hb time.Duration, hooks *Hooks) Config {
	return Config{
		QueueSize: 16, CacheDir: dir,
		MaxAttempts: 3, RetryBaseDelay: time.Millisecond, Hooks: hooks,
		Workers: 1, LeaseTTL: ttl, HeartbeatInterval: hb,
		Cluster: &ClusterConfig{},
	}
}

// remoteHolderConfig is clusterDirConfig without in-process workers: its
// jobs run on the worker startRemoteHolder joins, whose leases — unlike
// an in-process worker's — are journaled.
func remoteHolderConfig(dir string, ttl, hb time.Duration) Config {
	cfg := clusterDirConfig(dir, ttl, hb, nil)
	cfg.Workers = -1
	return cfg
}

// startRemoteHolder joins a cluster.Remote to svc over httptest and
// returns a function that stops it. before runs ahead of each task it
// pulls, inside the recover boundary.
func startRemoteHolder(t *testing.T, svc *Service, before func(cluster.Task) error) (stop func()) {
	t.Helper()
	srv := httptest.NewServer(svc.Handler())
	rw := &cluster.Remote{
		Coordinator: srv.URL,
		Info:        cluster.WorkerInfo{ID: "remote-holder"},
		Runner:      &cluster.LocalRunner{Specs: verify.NewSpecCache(0), Memos: corpus.NewFamilyMemos(0)},
		Before:      before,
		PollWait:    50 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan struct{})
	go func() {
		rw.Run(ctx)
		close(exited)
	}()
	return func() {
		cancel()
		<-exited
		srv.Close()
	}
}

// crashWithGatedLease starts svc's hook gate dance: the worker is parked
// inside its before hook with its lease outstanding, crash() is issued
// concurrently (it blocks on an in-process worker), then the gate opens
// and the crash completes. Returns once the crash has finished.
func crashWithGatedLease(t *testing.T, svc *Service, gate chan struct{}) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		svc.crash()
		close(done)
	}()
	time.Sleep(50 * time.Millisecond) // let the crash reach the worker join
	close(gate)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("crash never completed")
	}
}

// TestClusterCrashRecoversOutstandingLease: a coordinator killed with a
// lease in flight must, on restart, rebuild that lease from the journal
// (job Running, lease outstanding — not a blind re-enqueue), then expire
// it and re-dispatch exactly once. A clean shutdown afterwards leaves
// nothing to replay.
func TestClusterCrashRecoversOutstandingLease(t *testing.T) {
	dir := t.TempDir()
	const ttl = 2 * time.Second

	var entered sync.Once
	enteredCh := make(chan struct{})
	gate := make(chan struct{})
	before := func(cluster.Task) error {
		entered.Do(func() { close(enteredCh) })
		<-gate
		return nil
	}
	svc1 := newTestService(t, remoteHolderConfig(dir, ttl, 100*time.Millisecond), false)
	svc1.Start()
	defer startRemoteHolder(t, svc1, before)()
	j1, err := svc1.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-enteredCh:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never picked up the lease")
	}
	crashWithGatedLease(t, svc1, gate)
	if v := svc1.Snapshot(j1); v.State != StateFailed || !v.Replayable {
		t.Fatalf("crashed job: %+v, want replayable failure", v)
	}

	// Restart within the TTL: the journaled lease is still live and must
	// come back as a reconstructed lease, not a queue entry.
	svc2 := newTestService(t, clusterDirConfig(dir, ttl, 100*time.Millisecond, nil), false)
	m2 := svc2.Metrics()
	if got := svc2.coord.Outstanding(); got != 1 {
		t.Fatalf("outstanding leases after replay = %d, want 1", got)
	}
	j2, ok := svc2.Job(j1.ID())
	if !ok {
		t.Fatalf("replayed job %s not found", j1.ID())
	}
	if v := svc2.Snapshot(j2); v.State != StateRunning {
		t.Fatalf("recovered-lease job state = %s, want running", v.State)
	}
	if r, e := m2.JobsReplayed.Load(), m2.ClusterLeasesExpired.Load(); r != 1 || e != 0 {
		t.Fatalf("after recovery replayed=%d expired=%d, want 1/0 (expiry has not happened yet)", r, e)
	}

	// The dead worker never returns; the expiry owes exactly one
	// re-dispatch, after which the job completes normally.
	svc2.Start()
	waitDone(t, j2)
	v := svc2.Snapshot(j2)
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("recovered job: %+v", v)
	}
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (the recovered attempt + the one re-dispatch)", v.Attempts)
	}
	if e, r := m2.ClusterLeasesExpired.Load(), m2.ClusterRedispatches.Load(); e != 1 || r != 1 {
		t.Fatalf("expired=%d redispatches=%d, want exactly 1/1", e, r)
	}
	if q, h := m2.JobsQuarantined.Load(), m2.CacheHits.Load(); q != 0 || h != 0 {
		t.Fatalf("quarantined=%d cacheHits=%d polluted by lease recovery, want 0/0", q, h)
	}

	ctx, cancel := contextWithTestTimeout(t)
	defer cancel()
	if err := svc2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	svc3 := newTestService(t, clusterDirConfig(dir, ttl, 100*time.Millisecond, nil), true)
	m3 := svc3.Metrics()
	if r, e := m3.JobsReplayed.Load(), m3.ClusterLeasesExpired.Load(); r != 0 || e != 0 {
		t.Fatalf("after clean shutdown replayed=%d expired=%d, want 0/0 (compaction retired the lease)", r, e)
	}
	if got := svc3.coord.Outstanding(); got != 0 {
		t.Fatalf("outstanding leases after clean restart = %d, want 0", got)
	}
}

// TestInProcessJobRerunsAfterCrash: an in-process worker dies with the
// process, so its lease is never journaled. A job parked on one when the
// service crashes replays as an ordinary queued job — no lease to
// reinstall and wait out — and finishes in one attempt, well inside the
// lease TTL.
func TestInProcessJobRerunsAfterCrash(t *testing.T) {
	dir := t.TempDir()
	const ttl = 30 * time.Second

	var entered sync.Once
	enteredCh := make(chan struct{})
	gate := make(chan struct{})
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		entered.Do(func() { close(enteredCh) })
		<-gate
		return nil
	}}
	svc1 := newTestService(t, clusterDirConfig(dir, ttl, time.Second, hooks), false)
	svc1.Start()
	j1, err := svc1.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-enteredCh:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never picked up the lease")
	}
	crashWithGatedLease(t, svc1, gate)

	raw, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(raw, []byte("\n")) {
		var rec journalRecord
		if len(line) > 0 && json.Unmarshal(line, &rec) == nil && rec.Op == opLease {
			t.Fatalf("journal line %d is a lease record for in-process worker %s", i, rec.Worker)
		}
	}

	svc2 := newTestService(t, clusterDirConfig(dir, ttl, time.Second, nil), false)
	j2, ok := svc2.Job(j1.ID())
	if !ok {
		t.Fatalf("replayed job %s not found", j1.ID())
	}
	if v := svc2.Snapshot(j2); v.State != StateQueued || svc2.coord.Outstanding() != 0 {
		t.Fatalf("after replay: state %s, outstanding leases %d; want queued, 0", v.State, svc2.coord.Outstanding())
	}
	t0 := time.Now()
	svc2.Start()
	waitDone(t, j2)
	if took := time.Since(t0); took > ttl/2 {
		t.Fatalf("replayed job took %v: it waited for a lease (TTL %v)", took, ttl)
	}
	if v := svc2.Snapshot(j2); v.State != StateDone || v.Attempts != 1 {
		t.Fatalf("replayed job: %+v, want done in exactly 1 attempt", v)
	}
	ctx, cancel := contextWithTestTimeout(t)
	defer cancel()
	if err := svc2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestClusterExpiredLeaseRedispatchOnce: when the journaled lease is
// already past its expiry at boot, replay itself accounts the expiry and
// performs the single re-dispatch — a plain re-enqueue, one attempt, no
// second firing from the scanner.
func TestClusterExpiredLeaseRedispatchOnce(t *testing.T) {
	dir := t.TempDir()
	const ttl = 300 * time.Millisecond

	var entered sync.Once
	enteredCh := make(chan struct{})
	gate := make(chan struct{})
	before := func(cluster.Task) error {
		entered.Do(func() { close(enteredCh) })
		<-gate
		return nil
	}
	svc1 := newTestService(t, remoteHolderConfig(dir, ttl, 50*time.Millisecond), false)
	svc1.Start()
	defer startRemoteHolder(t, svc1, before)()
	j1, err := svc1.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-enteredCh:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never picked up the lease")
	}
	crashWithGatedLease(t, svc1, gate)

	time.Sleep(ttl + 200*time.Millisecond) // let the journaled expiry pass

	svc2 := newTestService(t, clusterDirConfig(dir, ttl, 50*time.Millisecond, nil), false)
	m2 := svc2.Metrics()
	if e, r := m2.ClusterLeasesExpired.Load(), m2.ClusterRedispatches.Load(); e != 1 || r != 1 {
		t.Fatalf("boot-time expiry accounting: expired=%d redispatches=%d, want 1/1", e, r)
	}
	if got := svc2.coord.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d, want 0 (expired lease must not be reinstalled)", got)
	}
	j2, ok := svc2.Job(j1.ID())
	if !ok {
		t.Fatalf("replayed job %s not found", j1.ID())
	}
	if v := svc2.Snapshot(j2); v.State != StateQueued {
		t.Fatalf("expired-lease job state = %s, want queued", v.State)
	}
	svc2.Start()
	waitDone(t, j2)
	v := svc2.Snapshot(j2)
	if v.State != StateDone || v.Attempts != 1 {
		t.Fatalf("re-dispatched job: %+v, want done in exactly 1 attempt", v)
	}
	if e, r := m2.ClusterLeasesExpired.Load(), m2.ClusterRedispatches.Load(); e != 1 || r != 1 {
		t.Fatalf("post-completion: expired=%d redispatches=%d grew past 1/1 — double dispatch", e, r)
	}
	ctx, cancel := contextWithTestTimeout(t)
	defer cancel()
	if err := svc2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestClusterReplayDoesNotDoubleCountMetrics is the cluster-path twin of
// TestReplayDoesNotDoubleCountMetrics: quarantine rebuilds and cache-hit
// replays must behave identically when jobs run under leases — counters
// are live-event counters, and a second clean restart re-counts nothing.
func TestClusterReplayDoesNotDoubleCountMetrics(t *testing.T) {
	dir := t.TempDir()
	var poison atomic.Bool
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		if poison.Load() {
			panic("poison")
		}
		return nil
	}}
	cfg1 := clusterDirConfig(dir, 10*time.Second, time.Second, hooks)
	cfg1.MaxAttempts = 2
	svc1 := newTestService(t, cfg1, true)

	good, err := svc1.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, good)
	if v := svc1.Snapshot(good); v.State != StateDone {
		t.Fatalf("good job: %+v", v)
	}
	canonical := good.spec.canonical

	// Worker panics surface through the lease protocol (ErrWorkerPanic)
	// and must land in the same quarantine ledger as single-node panics.
	poison.Store(true)
	badSpec := "protocol tiny2\ndomain 2\nwindow 0 1\nlegit x[0] == x[1]\naction copy: x[0] != x[1] -> x[0] := x[1]\n"
	bad, err := svc1.Submit(Request{Spec: badSpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, bad)
	if v := svc1.Snapshot(bad); v.State != StateQuarantined {
		t.Fatalf("poison job: %+v", v)
	}
	svc1.crash() // no compaction: the quarantine pair stays journaled

	// A submit journaled but never run, with its result already cached:
	// replay must resolve it as one cache hit, zero executions.
	w, _, err := openJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(journalRecord{Op: opSubmit, ID: "job-999990", Name: "tiny", Spec: canonical}); err != nil {
		t.Fatal(err)
	}
	w.close()

	svc2 := newTestService(t, clusterDirConfig(dir, 10*time.Second, time.Second, nil), true)
	m2 := svc2.Metrics()
	if got := m2.JobsQuarantined.Load(); got != 0 {
		t.Fatalf("JobsQuarantined = %d after replay, want 0: rebuilding the ledger is not a new quarantine", got)
	}
	if st := svc2.Stats(); st.Quarantined != 1 {
		t.Fatalf("Stats.Quarantined = %d, want 1: the ledger itself must survive", st.Quarantined)
	}
	if got := m2.JobsReplayed.Load(); got != 1 {
		t.Fatalf("JobsReplayed = %d, want 1 (the pending record; quarantine rebuilds are not replays)", got)
	}
	if hits, done := m2.CacheHits.Load(), m2.JobsDone.Load(); hits != 1 || done != 1 {
		t.Fatalf("CacheHits = %d JobsDone = %d, want 1/1 for the cache-hit replay", hits, done)
	}
	if d := m2.ClusterRedispatches.Load(); d != 0 {
		t.Fatalf("ClusterRedispatches = %d, want 0: no lease was outstanding", d)
	}
	rj, ok := svc2.Job("job-999990")
	if !ok {
		t.Fatal("replayed job not found")
	}
	if v := svc2.Snapshot(rj); v.State != StateDone || !v.Cached {
		t.Fatalf("replayed job: %+v, want done from cache (never dispatched to a worker)", v)
	}

	ctx, cancel := contextWithTestTimeout(t)
	defer cancel()
	if err := svc2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	svc3 := newTestService(t, clusterDirConfig(dir, 10*time.Second, time.Second, nil), true)
	m3 := svc3.Metrics()
	if r, h, d, q := m3.JobsReplayed.Load(), m3.CacheHits.Load(), m3.JobsDone.Load(), m3.JobsQuarantined.Load(); r != 0 || h != 0 || d != 0 || q != 0 {
		t.Fatalf("second restart re-counted: replayed=%d hits=%d done=%d quarantined=%d, want all 0", r, h, d, q)
	}
	if st := svc3.Stats(); st.Quarantined != 1 {
		t.Fatalf("Stats.Quarantined = %d after second restart, want 1", st.Quarantined)
	}
}

// TestTornLeaseRecordNeverLosesJob is the kill-at-offset sweep for lease
// records, alongside the torn-tail suite for submit records: truncate the
// WAL at every byte offset inside the final lease record and boot a
// cluster service over each prefix. Every boot must succeed, the job must
// survive (recovered lease when the record is whole, plain re-enqueue
// when torn), and replay must never wedge. This pins journal.append's
// single-write discipline: a lease record is all-or-nothing on disk.
func TestTornLeaseRecordNeverLosesJob(t *testing.T) {
	tmp := newTestService(t, Config{}, false)
	jc, err := tmp.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	canonical := jc.spec.canonical
	tmp.crash()

	sub, err := json.Marshal(journalRecord{
		Op: opSubmit, ID: "job-000001", Name: "tiny", Spec: canonical, TimeoutMS: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := json.Marshal(journalRecord{
		Op: opLease, ID: "job-000001", Worker: "w-dead",
		ExpireAtMS: time.Now().Add(time.Hour).UnixMilli(),
	})
	if err != nil {
		t.Fatal(err)
	}
	full := append(append(append(sub, '\n'), lease...), '\n')
	base := len(sub) + 1 // first kill offset: one byte into the lease record

	for off := base + 1; off <= len(full); off++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.wal"), full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		svc := newTestService(t, clusterDirConfig(dir, time.Second, 100*time.Millisecond, nil), false)
		j, ok := svc.Job("job-000001")
		if !ok {
			t.Fatalf("offset %d: job lost", off)
		}
		v := svc.Snapshot(j)
		whole := off >= base+len(lease) // record complete (trailing newline optional)
		if whole {
			if v.State != StateRunning || svc.coord.Outstanding() != 1 {
				t.Fatalf("offset %d: whole lease record: state=%s outstanding=%d, want running/1",
					off, v.State, svc.coord.Outstanding())
			}
		} else {
			if v.State != StateQueued || svc.coord.Outstanding() != 0 {
				t.Fatalf("offset %d: torn lease record: state=%s outstanding=%d, want queued/0 (torn tail dropped)",
					off, v.State, svc.coord.Outstanding())
			}
		}
		if got := svc.Metrics().JobsReplayed.Load(); got != 1 {
			t.Fatalf("offset %d: JobsReplayed = %d, want 1", off, got)
		}
		svc.crash()
	}
}

// TestCrashDuringRenewalsLeavesParseableJournal pins the fsync ordering
// on lease entries: renewals journal an opLease per heartbeat, and a
// crash racing that stream must leave a journal where every line parses
// whole — journal.append writes one complete line per record under the
// compaction mutex, so a torn lease record cannot exist. The restarted
// service replays the job exactly once.
func TestCrashDuringRenewalsLeavesParseableJournal(t *testing.T) {
	dir := t.TempDir()
	before := func(cluster.Task) error {
		time.Sleep(400 * time.Millisecond) // outlive several heartbeat intervals
		return nil
	}
	svc1 := newTestService(t, remoteHolderConfig(dir, 500*time.Millisecond, 20*time.Millisecond), false)
	svc1.Start()
	defer startRemoteHolder(t, svc1, before)()
	j1, err := svc1.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	m1 := svc1.Metrics()
	deadline := time.Now().Add(10 * time.Second)
	for m1.ClusterLeaseRenewals.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if m1.ClusterLeaseRenewals.Load() < 3 {
		t.Fatal("renewals never flowed")
	}
	svc1.crash() // mid-renewal-stream; blocks briefly on the sleeping hook

	raw, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	leaseRecords := 0
	for i, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %d torn after crash during renewals: %v\n%q", i, err, line)
		}
		if rec.Op == opLease {
			leaseRecords++
			if rec.Worker == "" || rec.ExpireAtMS == 0 {
				t.Fatalf("journal line %d: partial lease record: %+v", i, rec)
			}
		}
	}
	if leaseRecords < 3 {
		t.Fatalf("journal carries %d lease records, want >= 3 (grant + renewals)", leaseRecords)
	}

	svc2 := newTestService(t, clusterDirConfig(dir, 500*time.Millisecond, 20*time.Millisecond, nil), true)
	m2 := svc2.Metrics()
	if got := m2.JobsReplayed.Load(); got != 1 {
		t.Fatalf("JobsReplayed = %d, want 1", got)
	}
	j2, ok := svc2.Job(j1.ID())
	if !ok {
		t.Fatalf("replayed job %s not found", j1.ID())
	}
	waitDone(t, j2)
	if v := svc2.Snapshot(j2); v.State != StateDone || v.Result == nil {
		t.Fatalf("replayed job: %+v", v)
	}
	if got := m2.ClusterRedispatches.Load(); got != 1 {
		t.Fatalf("ClusterRedispatches = %d, want exactly 1 (recovered lease expired once, or boot expiry)", got)
	}
}
