package service

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// numberedSpec renders a tiny valid spec with a distinct protocol name, so
// each i is a distinct content address (the cache never short-circuits).
func numberedSpec(i int) string {
	return fmt.Sprintf("protocol p%03d\ndomain 2\nwindow 0 1\nlegit x[0] == x[1]\naction copy: x[0] != x[1] -> x[0] := x[1]\n", i)
}

// TestPanicIsolation: an engine panic (injected via the BeforeVerify hook,
// which runs inside the same recover scope) fails the attempt — with the
// panic value and stack in the job error — retries, and, because the
// fault is one-shot, the job then completes with a correct verdict. The
// process (the test binary) obviously survives.
func TestPanicIsolation(t *testing.T) {
	var once sync.Once
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		fired := false
		once.Do(func() { fired = true })
		if fired {
			panic("injected engine panic")
		}
		return nil
	}}
	svc := newTestService(t, Config{Workers: 1, MaxAttempts: 3, RetryBaseDelay: time.Millisecond, Hooks: hooks}, true)

	j, err := svc.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	v := svc.Snapshot(j)
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("job after panic+retry: %+v", v)
	}
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one panicked, one clean)", v.Attempts)
	}
	if got := svc.Metrics().JobsPanicked.Load(); got != 1 {
		t.Fatalf("JobsPanicked = %d, want 1", got)
	}
	if got := svc.Metrics().JobsRetried.Load(); got != 1 {
		t.Fatalf("JobsRetried = %d, want 1", got)
	}
}

// TestQuarantineAfterMaxAttempts: a job that panics on every attempt is
// quarantined — visible in Jobs(StateQuarantined), counted, and its error
// carries the panic value and a stack trace.
func TestQuarantineAfterMaxAttempts(t *testing.T) {
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		panic(fmt.Sprintf("poison pill on attempt %d", attempt))
	}}
	svc := newTestService(t, Config{Workers: 2, MaxAttempts: 3, RetryBaseDelay: time.Millisecond, Hooks: hooks}, true)

	j, err := svc.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	v := svc.Snapshot(j)
	if v.State != StateQuarantined {
		t.Fatalf("state = %s, want quarantined (%+v)", v.State, v)
	}
	if v.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", v.Attempts)
	}
	if !strings.Contains(v.Error, "poison pill on attempt 3") || !strings.Contains(v.Error, "runtime/debug") {
		t.Fatalf("quarantine error must carry panic value and stack, got %q", firstLine(v.Error))
	}
	if got := svc.Metrics().JobsQuarantined.Load(); got != 1 {
		t.Fatalf("JobsQuarantined = %d, want 1", got)
	}
	if got := svc.Metrics().JobsPanicked.Load(); got != 3 {
		t.Fatalf("JobsPanicked = %d, want 3", got)
	}
	quarantined := svc.Jobs(StateQuarantined)
	if len(quarantined) != 1 || quarantined[0].ID != j.ID() {
		t.Fatalf("Jobs(quarantined) = %+v", quarantined)
	}
	if st := svc.Stats(); st.Quarantined != 1 {
		t.Fatalf("Stats.Quarantined = %d, want 1", st.Quarantined)
	}
}

// TestTransientErrorRetries: a hook error (the injected stand-in for
// transient cache-tier I/O) is retried like a panic, without a panic
// counter increment.
func TestTransientErrorRetries(t *testing.T) {
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		if attempt < 3 {
			return errors.New("injected I/O failure")
		}
		return nil
	}}
	svc := newTestService(t, Config{Workers: 1, MaxAttempts: 3, RetryBaseDelay: time.Millisecond, Hooks: hooks}, true)

	j, err := svc.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	v := svc.Snapshot(j)
	if v.State != StateDone || v.Attempts != 3 {
		t.Fatalf("job: %+v", v)
	}
	if got := svc.Metrics().JobsPanicked.Load(); got != 0 {
		t.Fatalf("JobsPanicked = %d, want 0", got)
	}
	if got := svc.Metrics().JobsRetried.Load(); got != 2 {
		t.Fatalf("JobsRetried = %d, want 2", got)
	}
}

// TestBackoffDelayShape pins the backoff arithmetic: exponential in the
// attempt, capped, jittered within [50%, 150%), and deterministic for a
// fixed (key, attempt).
func TestBackoffDelayShape(t *testing.T) {
	base := 100 * time.Millisecond
	for attempt := 1; attempt <= 6; attempt++ {
		ideal := base << (attempt - 1)
		if ideal > 30*time.Second {
			ideal = 30 * time.Second
		}
		d := backoffDelay(base, attempt, "some-key")
		if d < ideal/2 || d >= ideal+ideal/2 {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, ideal/2, ideal+ideal/2)
		}
		if d2 := backoffDelay(base, attempt, "some-key"); d2 != d {
			t.Fatalf("attempt %d: jitter not deterministic (%v vs %v)", attempt, d, d2)
		}
	}
	if backoffDelay(time.Second, 40, "k") >= 45*time.Second {
		t.Fatal("backoff must cap at 30s (plus jitter)")
	}
}

// TestRetryRespectsDeadline: when the next backoff would outlive the
// job's deadline, the job fails as a timeout immediately instead of
// sleeping toward a guaranteed failure.
func TestRetryRespectsDeadline(t *testing.T) {
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		panic("always")
	}}
	svc := newTestService(t, Config{
		Workers: 1, MaxAttempts: 10, RetryBaseDelay: 10 * time.Second, Hooks: hooks,
	}, true)
	j, err := svc.Submit(Request{Spec: tinySpec, TimeoutMS: 500})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	v := svc.Snapshot(j)
	if v.State != StateFailed || !strings.Contains(v.Error, "retry backoff") {
		t.Fatalf("job: state=%s err=%q", v.State, firstLine(v.Error))
	}
	if got := svc.Metrics().JobsTimeout.Load(); got != 1 {
		t.Fatalf("JobsTimeout = %d, want 1", got)
	}
}

// TestHugeTimeoutClampsToMax: a client deadline too large to express in
// nanoseconds is clamped to MaxTimeout, not wrapped into the past.
func TestHugeTimeoutClampsToMax(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, MaxTimeout: time.Minute}, true)
	j, err := svc.Submit(Request{Spec: tinySpec, TimeoutMS: math.MaxInt})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if v := svc.Snapshot(j); v.State != StateDone || j.timeout != time.Minute {
		t.Fatalf("job: state=%s timeout=%v err=%q, want done under the 1m clamp", v.State, j.timeout, v.Error)
	}
}

// TestDeterministicEngineErrorNotRetried: a deterministic failure (the
// engine's state-count guard) must not burn retry attempts.
func TestDeterministicEngineErrorNotRetried(t *testing.T) {
	svc := newTestService(t, Config{
		Workers: 1, MaxAttempts: 5, RetryBaseDelay: time.Millisecond,
		MemoryBudgetBytes: 4, DegradeOverBudget: true, // MaxStates clamp = 32 states
	}, true)
	// xval to K=6 needs 64 states > the 32-state degraded clamp.
	j, err := svc.Submit(Request{Spec: tinySpec, Options: RequestOptions{CrossValidateMaxK: 6}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	v := svc.Snapshot(j)
	if v.State != StateFailed || !strings.Contains(v.Error, "exceeds limit") {
		t.Fatalf("job: state=%s err=%q", v.State, v.Error)
	}
	if !v.Degraded {
		t.Fatalf("job must be marked degraded: %+v", v)
	}
	if v.Attempts != 1 {
		t.Fatalf("deterministic failure retried: attempts = %d", v.Attempts)
	}
}

// TestOverBudgetSubmit: with degradation off, a job whose estimate alone
// exceeds the budget is rejected with ErrOverBudget at submit time.
func TestOverBudgetSubmit(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, MemoryBudgetBytes: 16}, true)
	// Estimate for xval=6 on domain 2: five per-K tables of 8 bytes = 40.
	_, err := svc.Submit(Request{Spec: tinySpec, Options: RequestOptions{CrossValidateMaxK: 6}})
	if !errors.Is(err, ErrOverBudget) {
		t.Fatalf("error = %v, want ErrOverBudget", err)
	}
	// A local-reasoning-only job estimates zero bytes and sails through.
	j, err := svc.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if v := svc.Snapshot(j); v.State != StateDone {
		t.Fatalf("zero-estimate job: %+v", v)
	}
}

// TestDegradedOverBudgetStillCompletes: with degradation on, an
// over-budget job whose ring sizes happen to fit the clamp completes
// normally, flagged degraded.
func TestDegradedOverBudgetStillCompletes(t *testing.T) {
	// Budget 16 bytes -> clamp 128 states; xval=6 needs only 64 states,
	// but its summed estimate (40 bytes) exceeds the budget.
	svc := newTestService(t, Config{
		Workers: 1, MemoryBudgetBytes: 16, DegradeOverBudget: true,
	}, true)
	j, err := svc.Submit(Request{Spec: tinySpec, Options: RequestOptions{CrossValidateMaxK: 6}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	v := svc.Snapshot(j)
	if v.State != StateDone || !v.Degraded {
		t.Fatalf("degraded job: %+v", v)
	}
	// Degradation is a resource decision, never a verdict change: the
	// verdict must match an unconstrained service's.
	ref := newTestService(t, Config{Workers: 1}, true)
	jr, err := ref.Submit(Request{Spec: tinySpec, Options: RequestOptions{CrossValidateMaxK: 6}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jr)
	if want := ref.Snapshot(jr).Result.Summary; v.Result.Summary != want {
		t.Fatalf("degraded verdict %q != reference %q", v.Result.Summary, want)
	}
}

// TestMemoryBudgetIsServerWide: MemoryBudgetBytes is one budget that the
// in-process workers share, in coordinator mode as on a single node. With
// two workers and a budget that fits one job's estimate, two such jobs run
// one at a time: the second stays queued, with no start time, until the
// first releases its reservation, and MemInUseBytes reports the running
// job's estimate, then 0.
func TestMemoryBudgetIsServerWide(t *testing.T) {
	entered := make(chan string, 2)
	release := make(chan struct{})
	abandon := make(chan struct{})
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		entered <- id
		select {
		case <-release:
		case <-abandon: // the test failed: let the cleanup's Shutdown drain
		}
		return nil
	}}
	const budget = 40 // xval=6 on domain 2: five per-K tables of 8 bytes
	svc := newTestService(t, Config{
		Workers: 2, MemoryBudgetBytes: budget, Hooks: hooks,
		Cluster: &ClusterConfig{},
	}, true)
	t.Cleanup(func() { close(abandon) }) // runs before the Shutdown cleanup
	var jobs []*Job
	for i := 0; i < 2; i++ {
		j, err := svc.Submit(Request{Spec: numberedSpec(i), Options: RequestOptions{CrossValidateMaxK: 6}})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	est := jobs[0].estimate
	if est == 0 || est > budget || 2*est <= budget {
		t.Fatalf("estimate %d bytes: want one job, not two, to fit the %d-byte budget", est, budget)
	}
	waitEntered := func() string {
		t.Helper()
		select {
		case id := <-entered:
			return id
		case <-time.After(30 * time.Second):
			t.Fatal("no job started")
			return ""
		}
	}
	holdsBudget := func(running, waiting *Job) {
		t.Helper()
		select {
		case id := <-entered:
			t.Fatalf("%s started while %s held the budget", id, running.ID())
		case <-time.After(100 * time.Millisecond):
		}
		if v := svc.Snapshot(waiting); v.State != StateQueued || v.StartedAt != "" {
			t.Fatalf("job waiting for budget: %+v, want queued and not started", v)
		}
		if st := svc.Stats(); st.MemInUseBytes != est || st.Running != 1 {
			t.Fatalf("stats while %s runs: mem in use %d, running %d; want %d, 1",
				running.ID(), st.MemInUseBytes, st.Running, est)
		}
	}

	if id := waitEntered(); id != jobs[0].ID() {
		t.Fatalf("first job to start: %s, want %s", id, jobs[0].ID())
	}
	holdsBudget(jobs[0], jobs[1])
	release <- struct{}{}
	waitDone(t, jobs[0])
	if id := waitEntered(); id != jobs[1].ID() {
		t.Fatalf("second job to start: %s, want %s", id, jobs[1].ID())
	}
	if st := svc.Stats(); st.MemInUseBytes != est {
		t.Fatalf("mem in use while %s runs: %d, want %d", jobs[1].ID(), st.MemInUseBytes, est)
	}
	release <- struct{}{}
	waitDone(t, jobs[1])
	for _, j := range jobs {
		if v := svc.Snapshot(j); v.State != StateDone {
			t.Fatalf("job %s: %+v", j.ID(), v)
		}
	}
	if st := svc.Stats(); st.MemInUseBytes != 0 {
		t.Fatalf("mem in use after both jobs: %d, want 0", st.MemInUseBytes)
	}
}

// TestCacheWriteErrorSurfaced: an injected disk-tier failure is counted,
// surfaced in Stats, and does not fail the job (the memory tier still
// serves the result).
func TestCacheWriteErrorSurfaced(t *testing.T) {
	hooks := &Hooks{CacheWrite: func(key string) error {
		return errors.New("disk full")
	}}
	svc := newTestService(t, Config{Workers: 1, CacheDir: t.TempDir(), Hooks: hooks}, true)
	j, err := svc.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if v := svc.Snapshot(j); v.State != StateDone {
		t.Fatalf("job must succeed despite the cache write failure: %+v", v)
	}
	if got := svc.Metrics().CacheWriteErrors.Load(); got != 1 {
		t.Fatalf("CacheWriteErrors = %d, want 1", got)
	}
	if st := svc.Stats(); st.CacheWriteErrors != 1 {
		t.Fatalf("Stats.CacheWriteErrors = %d, want 1", st.CacheWriteErrors)
	}
	// The memory tier still answers the repeat submission.
	j2, err := svc.Submit(Request{Spec: tinySpecVariant})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if v := svc.Snapshot(j2); !v.Cached {
		t.Fatalf("memory tier lost the result: %+v", v)
	}
}

// wideWindowSpec is a 94-byte spec whose local state space (3^10 states)
// sends Theorem 5.14 into its coarse check with about 39,000 t-arcs, each
// searching the whole space: 34 s of work when the search ignores the job
// deadline.
const wideWindowSpec = "protocol p3\ndomain 3\nwindow -9 0\nlegit x[-1] == x[0]\naction f: x[-1] != x[0] -> x[0] := x[-1]\n"

// TestTheoremLanesHonourDeadline: the theorem lanes stop at the job
// deadline, so a spec whose trail search outlasts it fails with the
// deadline error, as the explicit lanes' jobs do.
func TestTheoremLanesHonourDeadline(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, MaxTimeout: time.Second}, true)
	j, err := svc.Submit(Request{Spec: wideWindowSpec})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(3 * time.Second):
		t.Fatalf("job still %s 3 s after submission under a 1 s deadline", svc.Snapshot(j).State)
	}
	if v := svc.Snapshot(j); v.State != StateFailed || !strings.Contains(v.Error, "deadline exceeded") {
		t.Fatalf("state %s, error %q; want failed with the deadline error", v.State, v.Error)
	}
}
