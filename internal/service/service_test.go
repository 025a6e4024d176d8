package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

const tinySpec = `protocol tiny
domain 2
window 0 1
legit x[0] == x[1]
action copy: x[0] != x[1] -> x[0] := x[1]
`

// tinySpecVariant is semantically identical to tinySpec but textually
// different: extra whitespace, comments, and redundant parentheses.
const tinySpecVariant = `protocol tiny
domain 2
window  0   1
# a comment the canonical form drops
legit ((x[0]) == (x[1]))
action copy: (x[0] != x[1]) -> x[0] := (x[1])
`

func newTestService(t *testing.T, cfg Config, start bool) *Service {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if start {
		svc.Start()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = svc.Shutdown(ctx)
		})
	}
	return svc
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", j.ID())
	}
}

func TestSubmitRejectsBadSpec(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1}, true)
	for _, src := range []string{
		"",
		"this is not a spec",
		"protocol p\ndomain 2\nwindow 0 1\nlegit x[9] == 0\n", // index outside window
	} {
		if _, err := svc.Submit(Request{Spec: src}); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Submit(%q) error = %v, want ErrBadSpec", src, err)
		}
	}
	if got := svc.Metrics().ParseErrors.Load(); got != 3 {
		t.Fatalf("ParseErrors = %d, want 3", got)
	}
}

func TestSubmitCacheHitAndCanonicalization(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2}, true)

	j1, err := svc.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	v1 := svc.Snapshot(j1)
	if v1.State != StateDone || v1.Cached || v1.Result == nil {
		t.Fatalf("first submission: %+v", v1)
	}

	// The textual variant must hit the same cache line: the key is built
	// from the canonical dsl.Format rendering, not the submitted bytes.
	j2, err := svc.Submit(Request{Spec: tinySpecVariant})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	v2 := svc.Snapshot(j2)
	if v2.State != StateDone || !v2.Cached {
		t.Fatalf("variant submission not served from cache: %+v", v2)
	}
	if v2.Result.Summary != v1.Result.Summary {
		t.Fatalf("cached summary %q != original %q", v2.Result.Summary, v1.Result.Summary)
	}
	if hits := svc.Metrics().CacheHits.Load(); hits != 1 {
		t.Fatalf("CacheHits = %d, want 1", hits)
	}

	// Different options are a different content address.
	j3, err := svc.Submit(Request{Spec: tinySpec, Options: RequestOptions{CrossValidateMaxK: 3}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j3)
	if v3 := svc.Snapshot(j3); v3.Cached {
		t.Fatalf("different options must not be a cache hit: %+v", v3)
	}
}

// TestSubmitWorkersShareCacheEntry pins the content-address contract for
// execution knobs: the Workers hint and per-request deadline change how a
// verification runs, never what it concludes, so workers=1 and workers=8
// submissions of the same spec must resolve to ONE cache entry.
func TestSubmitWorkersShareCacheEntry(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2, EngineWorkers: 8}, true)

	j1, err := svc.Submit(Request{Spec: tinySpec, Options: RequestOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	if v1 := svc.Snapshot(j1); v1.State != StateDone || v1.Cached {
		t.Fatalf("first submission: %+v", v1)
	}

	for _, req := range []Request{
		{Spec: tinySpec, Options: RequestOptions{Workers: 8}},
		{Spec: tinySpec, Options: RequestOptions{Workers: 8}, TimeoutMS: 60000},
		{Spec: tinySpec},
	} {
		j, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if v := svc.Snapshot(j); v.State != StateDone || !v.Cached {
			t.Fatalf("request %+v fragmented the cache: %+v", req, v)
		}
	}
	if hits := svc.Metrics().CacheHits.Load(); hits != 3 {
		t.Fatalf("CacheHits = %d, want 3", hits)
	}
	if n := svc.cache.Len(); n != 1 {
		t.Fatalf("cache entries = %d, want 1 (workers/deadline must not be part of the key)", n)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	// No Start(): with no workers draining, the queue bound is exact.
	svc := newTestService(t, Config{Workers: 1, QueueSize: 1}, false)
	if _, err := svc.Submit(Request{Spec: tinySpec}); err != nil {
		t.Fatal(err)
	}
	// A distinct spec (different protocol name) avoids the cache path.
	other := "protocol tiny2\ndomain 2\nwindow 0 1\nlegit x[0] == x[1]\naction copy: x[0] != x[1] -> x[0] := x[1]\n"
	if _, err := svc.Submit(Request{Spec: other}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second submission error = %v, want ErrQueueFull", err)
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	svc, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	j, err := svc.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Drain means the queued job ran to completion before the pool exited.
	select {
	case <-j.Done():
	default:
		t.Fatal("Shutdown returned before the queued job finished")
	}
	if v := svc.Snapshot(j); v.State != StateDone {
		t.Fatalf("drained job state = %s, want done (%+v)", v.State, v)
	}
	if _, err := svc.Submit(Request{Spec: tinySpec}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-shutdown Submit error = %v, want ErrShutdown", err)
	}
	// Shutdown is idempotent.
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc1 := newTestService(t, Config{Workers: 1, CacheDir: dir}, true)
	j1, err := svc1.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)

	// A fresh service over the same cache directory answers from disk
	// without running the engine.
	svc2 := newTestService(t, Config{Workers: 1, CacheDir: dir}, true)
	j2, err := svc2.Submit(Request{Spec: tinySpecVariant})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if v2 := svc2.Snapshot(j2); !v2.Cached {
		t.Fatalf("restarted service missed the disk cache: %+v", v2)
	}
}

// get answers one GET through h.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestJobIndexBounded: past maxRetainedJobs submissions the index stays
// bounded, the newest job is listed and served, the oldest done job
// answers 404, and a quarantined job outlives the done jobs evicted around
// it.
func TestJobIndexBounded(t *testing.T) {
	poison := numberedSpec(1)
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		if id == "job-000001" {
			panic("poison pill")
		}
		return nil
	}}
	svc := newTestService(t, Config{Workers: 1, MaxAttempts: 1, Hooks: hooks}, true)
	quarantined, err := svc.Submit(Request{Spec: poison})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, quarantined)
	first, err := svc.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)

	const n = 5000
	var ids []string
	for i := 0; i < n; i++ {
		j, err := svc.Submit(Request{Spec: tinySpec})
		if err != nil {
			t.Fatal(err)
		}
		if !j.cached {
			t.Fatalf("submission %d was not a cache hit", i)
		}
		ids = append(ids, j.ID())
		svc.mu.Lock()
		jobs, order := len(svc.jobs), len(svc.order)
		svc.mu.Unlock()
		if jobs > maxRetainedJobs || order > maxRetainedJobs {
			t.Fatalf("after %d submissions the index holds %d jobs and %d ids, bound %d", i+1, jobs, order, maxRetainedJobs)
		}
	}

	h := svc.Handler()
	rec := get(h, "/v1/jobs")
	var list struct{ Jobs []JobView }
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	newest := ids[len(ids)-1]
	if len(list.Jobs) == 0 || list.Jobs[len(list.Jobs)-1].ID != newest {
		t.Fatalf("GET /v1/jobs lists %d jobs, not ending with the newest, %s", len(list.Jobs), newest)
	}
	for _, id := range ids[len(ids)-keptNewestJobs:] {
		if rec := get(h, "/v1/jobs/"+id); rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s (among the newest %d) = %d", id, keptNewestJobs, rec.Code)
		}
	}
	if rec := get(h, "/v1/jobs/"+first.ID()); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/jobs/%s (the oldest done job) = %d, want 404", first.ID(), rec.Code)
	}
	if rec := get(h, "/v1/jobs/"+quarantined.ID()); rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s (quarantined) = %d, want 200: done jobs go first", quarantined.ID(), rec.Code)
	}
}
