package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func contextWithTestTimeout(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 30*time.Second)
}

func TestJournalAppendAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	want := []journalRecord{
		{Op: opSubmit, ID: "job-1", Name: "tiny", Spec: tinySpec, TimeoutMS: 5000},
		{Op: opDone, ID: "job-1"},
		{Op: opSubmit, ID: "job-2", Name: "tiny", Spec: tinySpec},
	}
	for _, rec := range want {
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.close()
	if err := w.append(journalRecord{Op: opDone, ID: "job-2"}); err == nil {
		t.Fatal("append after close must fail")
	}

	_, got, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopened %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestJournalToleratesTornTail: a crash mid-append leaves a partial final
// line; reopen must keep every record before it and drop the torn tail
// (and anything after — nothing after an unsynced tear is trustworthy).
func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(journalRecord{Op: opSubmit, ID: "job-1", Spec: tinySpec}); err != nil {
		t.Fatal(err)
	}
	w.close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","id":"job-`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "job-1" || recs[0].Op != opSubmit {
		t.Fatalf("records after torn tail = %+v", recs)
	}
}

// TestJournalAppendAfterTornTail: reopening a journal with a torn tail
// cuts the tail off the file, so the next boot's first append starts a
// line of its own and the boot after that replays it. Appending onto the
// torn bytes would glue the new record to them and lose it.
func TestJournalAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(journalRecord{Op: opSubmit, ID: "job-1", Spec: tinySpec}); err != nil {
		t.Fatal(err)
	}
	w.close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","id":"job-`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records after torn tail = %+v", recs)
	}
	if err := w.append(journalRecord{Op: opSubmit, ID: "job-2", Spec: tinySpec}); err != nil {
		t.Fatal(err)
	}
	w.close()

	_, recs, err = openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "job-1" || recs[1].ID != "job-2" {
		t.Fatalf("records after append past a torn tail = %+v, want job-1 and job-2", recs)
	}
}

// TestJournalLongRecord: a record longer than any line buffer replays, and
// so does the record after it. encoding/json writes '&' as a six-byte
// escape, so a spec of '&'s under the 1 MiB request bound journals a
// record past it.
func TestJournalLongRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	long := journalRecord{Op: opSubmit, ID: "job-1", Spec: strings.Repeat("&", 190_000)}
	if err := w.append(long); err != nil {
		t.Fatal(err)
	}
	if err := w.append(journalRecord{Op: opSubmit, ID: "job-2", Spec: tinySpec}); err != nil {
		t.Fatal(err)
	}
	w.close()
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Size() < 1_100_000 {
		t.Fatalf("journal size = %d bytes, want a record over 1.1 MB", fi.Size())
	}

	_, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0] != long || recs[1].ID != "job-2" {
		t.Fatalf("replayed %d records, want the long record and job-2", len(recs))
	}
}

// TestJournalSkipsUndecodableLine: a whole line that does not decode is
// counted in JournalErrors and skipped; the jobs on either side of it
// still replay.
func TestJournalSkipsUndecodableLine(t *testing.T) {
	dir := t.TempDir()
	svc1 := newTestService(t, Config{Workers: 1, CacheDir: dir}, false)
	j1, err := svc1.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	canonical := j1.spec.canonical
	svc1.crash()

	path := filepath.Join(dir, "journal.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"op\":\"done\",\"id\":\"job-\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(journalRecord{Op: opSubmit, ID: "job-000002", Name: "tiny", Spec: canonical}); err != nil {
		t.Fatal(err)
	}
	w.close()

	svc2 := newTestService(t, Config{Workers: 1, CacheDir: dir}, false)
	if got := svc2.Metrics().JournalErrors.Load(); got != 1 {
		t.Fatalf("JournalErrors = %d, want 1 for the undecodable line", got)
	}
	if got := svc2.Metrics().JobsReplayed.Load(); got != 2 {
		t.Fatalf("JobsReplayed = %d, want 2: replay must continue past the bad line", got)
	}
	svc2.crash()
}

func TestJournalCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.append(journalRecord{Op: opSubmit, ID: "job-x", Spec: tinySpec}); err != nil {
			t.Fatal(err)
		}
	}
	keep := []journalRecord{
		{Op: opSubmit, ID: "job-9", Spec: tinySpec},
		{Op: opQuarantine, ID: "job-9", Error: "poison"},
	}
	if err := w.compact(keep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Fatalf("compacted journal has %d lines, want 2", n)
	}
	_, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Op != opQuarantine || recs[1].Error != "poison" {
		t.Fatalf("compacted records = %+v", recs)
	}
}

// TestCompactKeepsJournalMode: the clean-shutdown compaction replaces
// journal.wal through a temp file, and the replacement must keep the mode
// the WAL had, not os.CreateTemp's 0600.
func TestCompactKeepsJournalMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	svc := newTestService(t, Config{Workers: 1, CacheDir: dir}, false)
	svc.Start()
	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	j, err := svc.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	ctx, cancel := contextWithTestTimeout(t)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Mode().Perm(); got != 0o640 {
		t.Fatalf("journal.wal mode after compaction = %#o, want 0640", got)
	}
}

func TestReduceJournal(t *testing.T) {
	recs := []journalRecord{
		{Op: opSubmit, ID: "a", Spec: "sa"},
		{Op: opSubmit, ID: "b", Spec: "sb"},
		{Op: opSubmit, ID: "c", Spec: "sc"},
		{Op: opSubmit, ID: "d", Spec: "sd"},
		{Op: opDone, ID: "a"},
		{Op: opFail, ID: "b", Error: "bad"},
		{Op: opQuarantine, ID: "c", Error: "poison"},
		{Op: "future-op", ID: "e"}, // unknown ops skipped, not fatal
	}
	st := reduceJournal(recs)
	if len(st.pending) != 1 || st.pending[0].ID != "d" {
		t.Fatalf("pending = %+v, want only d", st.pending)
	}
	if len(st.quarantined) != 1 || st.quarantined[0].ID != "c" {
		t.Fatalf("quarantined = %+v, want only c", st.quarantined)
	}
	if st.reasons["c"] != "poison" || st.reasons["b"] != "bad" {
		t.Fatalf("reasons = %+v", st.reasons)
	}
	// A duplicate submit (possible if a compaction raced a crash) must not
	// duplicate the replay.
	st = reduceJournal([]journalRecord{
		{Op: opSubmit, ID: "a", Spec: "v1"},
		{Op: opSubmit, ID: "a", Spec: "v2"},
	})
	if len(st.pending) != 1 || st.pending[0].Spec != "v2" {
		t.Fatalf("duplicate submits: pending = %+v", st.pending)
	}
}

// TestJournalReplayAcrossRestart drives the full loop through the
// Service: submit while no workers run, crash, restart over the same
// cache dir, and watch the journaled job complete.
func TestJournalReplayAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	// No Start(): the job stays queued, so the crash strands it with only
	// its journal record to its name.
	svc1 := newTestService(t, Config{Workers: 1, CacheDir: dir}, false)
	j1, err := svc1.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	svc1.crash()

	svc2 := newTestService(t, Config{Workers: 1, CacheDir: dir}, true)
	if got := svc2.Metrics().JobsReplayed.Load(); got != 1 {
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

	// Clean shutdown compacts: a third service over the same dir has
	// nothing to replay (the done record retired the submit).
	ctx, cancel := contextWithTestTimeout(t)
	defer cancel()
	if err := svc2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	svc3 := newTestService(t, Config{Workers: 1, CacheDir: dir}, true)
	if got := svc3.Metrics().JobsReplayed.Load(); got != 0 {
		t.Fatalf("after clean shutdown JobsReplayed = %d, want 0", got)
	}
}

// TestReplayDoesNotDoubleCountMetrics: counters are live-event counters,
// not ledger sizes. Rebuilding a quarantined job at startup must not
// increment JobsQuarantined (the quarantine already happened, in a dead
// process), and a cache-hit replay must retire its submit record so a
// second restart does not count the same hit, done, or replay again.
func TestReplayDoesNotDoubleCountMetrics(t *testing.T) {
	dir := t.TempDir()
	var poison atomic.Bool
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		if poison.Load() {
			panic("poison")
		}
		return nil
	}}
	svc1 := newTestService(t, Config{
		Workers: 1, CacheDir: dir, MaxAttempts: 2, RetryBaseDelay: time.Millisecond, Hooks: hooks,
	}, true)

	// A good job lands its result in the disk cache and retires its submit
	// record with an opDone.
	good, err := svc1.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, good)
	if v := svc1.Snapshot(good); v.State != StateDone {
		t.Fatalf("good job: %+v", v)
	}
	canonical := good.spec.canonical

	// A poison job exhausts its attempts and is quarantined.
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
	svc1.crash() // no compaction: the journal keeps the quarantine pair

	// Simulate a crash after journaling a submit but before running it:
	// its result is already in the disk cache, so the restart replays it
	// as an instant cache hit.
	w, _, err := openJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(journalRecord{Op: opSubmit, ID: "job-999990", Name: "tiny", Spec: canonical}); err != nil {
		t.Fatal(err)
	}
	w.close()

	svc2 := newTestService(t, Config{Workers: 1, CacheDir: dir}, true)
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
	rj, ok := svc2.Job("job-999990")
	if !ok {
		t.Fatal("replayed job not found")
	}
	if v := svc2.Snapshot(rj); v.State != StateDone || !v.Cached {
		t.Fatalf("replayed job: %+v, want done from cache", v)
	}

	// A second restart must not re-count anything: the cache-hit replay
	// appended its own opDone, and the quarantine pair replays silently.
	ctx, cancel := contextWithTestTimeout(t)
	defer cancel()
	if err := svc2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	svc3 := newTestService(t, Config{Workers: 1, CacheDir: dir}, true)
	m3 := svc3.Metrics()
	if r, h, d, q := m3.JobsReplayed.Load(), m3.CacheHits.Load(), m3.JobsDone.Load(), m3.JobsQuarantined.Load(); r != 0 || h != 0 || d != 0 || q != 0 {
		t.Fatalf("second restart re-counted: replayed=%d hits=%d done=%d quarantined=%d, want all 0", r, h, d, q)
	}
	if st := svc3.Stats(); st.Quarantined != 1 {
		t.Fatalf("Stats.Quarantined = %d after second restart, want 1", st.Quarantined)
	}
}

// TestQuarantineSurvivesRestart: the quarantine ledger is part of the
// journal's compaction set, so a quarantined job stays visible across a
// clean shutdown and restart.
func TestQuarantineSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error { panic("poison") }}
	svc1 := newTestService(t, Config{
		Workers: 1, CacheDir: dir, MaxAttempts: 2, RetryBaseDelay: time.Millisecond, Hooks: hooks,
	}, true)
	j, err := svc1.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if v := svc1.Snapshot(j); v.State != StateQuarantined {
		t.Fatalf("job: %+v", v)
	}
	ctx, cancel := contextWithTestTimeout(t)
	defer cancel()
	if err := svc1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	svc2 := newTestService(t, Config{Workers: 1, CacheDir: dir}, true)
	quarantined := svc2.Jobs(StateQuarantined)
	if len(quarantined) != 1 || quarantined[0].ID != j.ID() {
		t.Fatalf("quarantine ledger after restart = %+v", quarantined)
	}
	if !strings.Contains(quarantined[0].Error, "poison") {
		t.Fatalf("quarantine reason lost: %q", quarantined[0].Error)
	}
}

// failAfter is a logFile write seam that writes the first k bytes of a
// write and then fails it, as a full disk or an I/O error part-way does.
func failAfter(k int) func(f *os.File, p []byte) (int, error) {
	return func(f *os.File, p []byte) (int, error) {
		n, _ := f.Write(p[:k])
		return n, errors.New("injected write failure")
	}
}

// TestJournalFailedWriteDoesNotTakeNextRecord: a write that fails after k
// bytes, for every k across one record, must not glue its partial line to
// the next append, which would make an acknowledged, fsynced record
// undecodable at replay.
func TestJournalFailedWriteDoesNotTakeNextRecord(t *testing.T) {
	first := journalRecord{Op: opSubmit, ID: "job-000001", Name: "tiny", Spec: tinySpec}
	torn := journalRecord{Op: opDone, ID: "job-000001"}
	next := journalRecord{Op: opSubmit, ID: "job-000002", Name: "tiny", Spec: tinySpec}
	line, err := encodeRecords([]journalRecord{torn})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(line); k++ {
		path := filepath.Join(t.TempDir(), "journal.wal")
		w, _, err := openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.append(first); err != nil {
			t.Fatal(err)
		}
		w.log.writeFn = failAfter(k)
		if err := w.write(torn); err == nil {
			t.Fatalf("k=%d: the injected failure was not reported", k)
		}
		w.log.writeFn = nil
		if err := w.append(next); err != nil {
			t.Fatalf("k=%d: append after a failed write: %v", k, err)
		}
		w.close()
		w2, recs, err := openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		w2.close()
		if len(w2.skipped) != 0 || len(recs) != 2 || recs[0].ID != first.ID || recs[1].ID != next.ID || recs[1].Op != opSubmit {
			t.Fatalf("k=%d: replayed %+v (skipped %v), want the records on either side of the failed write", k, recs, w2.skipped)
		}
	}
}

// TestJournalGroupCommit: 32 appenders at once. Every record replays
// exactly once, and they share fsyncs. The write seam holds the first
// flush until the other 31 appenders are queued behind it, so the count
// is deterministic: the first flush, then one for all the rest.
func TestJournalGroupCommit(t *testing.T) {
	const n = 32
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	w.metrics = NewMetrics()
	queued := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.waiters)
	}
	var once sync.Once
	w.log.writeFn = func(f *os.File, p []byte) (int, error) {
		once.Do(func() {
			for queued() < n-1 {
				time.Sleep(time.Millisecond)
			}
		})
		return f.Write(p)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs <- w.append(journalRecord{Op: opSubmit, ID: fmt.Sprintf("job-%06d", i), Spec: tinySpec})
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	w.close()
	if syncs := w.metrics.JournalSyncs.Load(); syncs != 2 {
		t.Fatalf("%d appenders took %d syncs, want 2: the first flush and one for the %d queued behind it", n, syncs, n-1)
	}
	if recs := w.metrics.JournalRecords.Load(); recs != n {
		t.Fatalf("JournalRecords = %d, want %d", recs, n)
	}
	_, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, rec := range recs {
		seen[rec.ID]++
	}
	for i := 0; i < n; i++ {
		if id := fmt.Sprintf("job-%06d", i); seen[id] != 1 {
			t.Fatalf("%s replayed %d times, want once (records: %d)", id, seen[id], len(recs))
		}
	}
}

// TestBatchJournalsWithOneSync: a 64-spec batch on a journaled service
// costs one fsync for all of its submit records, and a crash right after
// SubmitBatch returns replays all 64 jobs.
func TestBatchJournalsWithOneSync(t *testing.T) {
	dir := t.TempDir()
	svc1 := newTestService(t, Config{Workers: 1, CacheDir: dir}, false)
	specs := sweepSources(t, 63) // the family's base spec and 63 variants
	if len(specs) != 64 {
		t.Fatalf("sweep has %d specs, want 64", len(specs))
	}
	b, err := svc1.SubmitBatch(BatchRequest{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range b.jobs {
		if j == nil {
			t.Fatalf("spec %d rejected: %s", i, b.errs[i])
		}
	}
	m := svc1.Metrics()
	if syncs, recs := m.JournalSyncs.Load(), m.JournalRecords.Load(); syncs != 1 || recs != 64 {
		t.Fatalf("64-spec batch: %d journal syncs for %d records, want 1 for 64", syncs, recs)
	}
	svc1.crash()

	svc2 := newTestService(t, Config{Workers: 1, CacheDir: dir}, true)
	if got := svc2.Metrics().JobsReplayed.Load(); got != 64 {
		t.Fatalf("JobsReplayed = %d, want 64", got)
	}
	for _, j1 := range b.jobs {
		j2, ok := svc2.Job(j1.ID())
		if !ok {
			t.Fatalf("job %s not replayed", j1.ID())
		}
		waitDone(t, j2)
		if v := svc2.Snapshot(j2); v.State != StateDone {
			t.Fatalf("replayed job: %+v", v)
		}
	}
}

// TestCompletedJobDoesNotReplay: a done record is not waited on, but it
// is written before the job is reported done, so a process kill after
// completion leaves nothing to replay.
func TestCompletedJobDoesNotReplay(t *testing.T) {
	dir := t.TempDir()
	svc1 := newTestService(t, Config{Workers: 1, CacheDir: dir}, false)
	svc1.Start()
	j, err := svc1.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if v := svc1.Snapshot(j); v.State != StateDone || v.Cached {
		t.Fatalf("job: %+v, want a fresh run", v)
	}
	if got := svc1.Metrics().JournalSyncs.Load(); got != 1 {
		t.Fatalf("JournalSyncs = %d, want 1: the submit record is synced, the done record is not waited on", got)
	}
	svc1.crash()

	svc2 := newTestService(t, Config{Workers: 1, CacheDir: dir}, true)
	if got := svc2.Metrics().JobsReplayed.Load(); got != 0 {
		t.Fatalf("JobsReplayed = %d after a crash past completion, want 0", got)
	}
}

// FuzzJournalOpen: arbitrary journal bytes never panic openJournal; every
// whole line that decodes is returned in order, and so is a torn last
// line that decodes, while one that does not is cut; and one append
// after the open is returned intact by the next reopen.
func FuzzJournalOpen(f *testing.F) {
	line := func(rec journalRecord) string {
		data, _ := encodeRecords([]journalRecord{rec})
		return string(data)
	}
	sub := line(journalRecord{Op: opSubmit, ID: "job-000001", Name: "tiny", Spec: tinySpec, TimeoutMS: 5000})
	done := line(journalRecord{Op: opDone, ID: "job-000001"})
	f.Add([]byte(sub + done))
	f.Add([]byte(sub + done[:12]))                                                                                // torn tail
	f.Add([]byte(sub + "{\"op\":\"done\",\"id\":\"job-\n" + done))                                                // garbage middle line
	f.Add([]byte(sub + done[:10] + done))                                                                         // a line glued after a partial write
	f.Add([]byte(sub + `{"op":"submit","op":"done","id":"job-000001","id":"job-000002"}` + "\n"))                 // duplicate keys
	f.Add([]byte(sub + sub + done))                                                                               // duplicate records
	f.Add([]byte(line(journalRecord{Op: opSubmit, ID: "job-000003", Spec: strings.Repeat("&", 190_000)}) + done)) // a 1.14 MB line
	f.Add([]byte("\n \n" + done[:len(done)-1]))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		var want []journalRecord
		for _, l := range bytes.SplitAfter(data, []byte{'\n'}) {
			var rec journalRecord
			if len(bytes.TrimSpace(l)) > 0 && json.Unmarshal(l, &rec) == nil {
				want = append(want, rec)
			}
		}
		if len(recs) != len(want) || len(want) > 0 && !reflect.DeepEqual(recs, want) {
			t.Fatalf("openJournal returned %d records, want %d:\n got %+v\nwant %+v", len(recs), len(want), recs, want)
		}
		next := journalRecord{Op: opSubmit, ID: "job-999999", Name: "tiny", Spec: tinySpec, TimeoutMS: 1}
		if err := w.append(next); err != nil {
			t.Fatal(err)
		}
		w.close()
		_, recs, err = openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(want)+1 || recs[len(recs)-1] != next {
			t.Fatalf("after one append the reopen returned %d records ending %+v, want %d ending %+v", len(recs), recs[len(recs)-1:], len(want)+1, next)
		}
	})
}
