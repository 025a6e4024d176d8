package service

import (
	"context"
	"os"
	"path/filepath"
	"strings"
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
