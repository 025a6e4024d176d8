package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paramring/internal/verify"
)

// stubRunner returns a canned report keyed by nothing — coordinator tests
// exercise lease mechanics, not the engine.
type stubRunner struct {
	delay time.Duration
	err   error
	calls atomic.Int64
}

func (s *stubRunner) Run(ctx context.Context, t Task) (*verify.Result, error) {
	s.calls.Add(1)
	if s.delay > 0 {
		timer := time.NewTimer(s.delay)
		defer timer.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	return &verify.Result{Deadlock: "proved", Livelock: "proved", SelfStabilizing: true}, nil
}

// newTestMux mounts the coordinator endpoints for transport tests.
func newTestMux(c *Coordinator) *http.ServeMux {
	mux := http.NewServeMux()
	Mount(mux, c)
	return mux
}

func newTestServer(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func testTask(id string) Task {
	return Task{JobID: id, Spec: "stub", DeadlineUnixMS: time.Now().Add(time.Minute).UnixMilli(), Attempt: 1}
}

type doneRec struct {
	rep    *verify.Result
	worker string
	err    error
}

func collectDone(ch chan doneRec) DoneFunc {
	return func(rep *verify.Result, workerID string, err error) {
		ch <- doneRec{rep: rep, worker: workerID, err: err}
	}
}

func startCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c := NewCoordinator(cfg)
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

// startWorker starts w, registered once it returns, and stops it when
// the test ends.
func startWorker(t *testing.T, w *Worker) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	if err := w.Start(ctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		w.Wait()
	})
}

// TestDispatchCompletes: a local worker pulls a dispatched task, runs it,
// and the done callback fires exactly once with the report.
func TestDispatchCompletes(t *testing.T) {
	c := startCoordinator(t, Config{LeaseTTL: time.Second})
	w := &Worker{Coord: c, Info: WorkerInfo{ID: "w1"}, Runner: &stubRunner{}}
	startWorker(t, w)
	ch := make(chan doneRec, 1)
	if err := c.Dispatch(context.Background(), testTask("j1"), collectDone(ch)); err != nil {
		t.Fatal(err)
	}
	rec := <-ch
	if rec.err != nil || rec.rep == nil || rec.worker != "w1" {
		t.Fatalf("done = %+v", rec)
	}
	if got := c.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d, want 0", got)
	}
}

// TestDispatchBlocksUntilJoin: dispatch with no workers blocks, then
// succeeds when one joins.
func TestDispatchBlocksUntilJoin(t *testing.T) {
	c := startCoordinator(t, Config{LeaseTTL: time.Second})
	ch := make(chan doneRec, 1)
	dispatched := make(chan error, 1)
	go func() {
		dispatched <- c.Dispatch(context.Background(), testTask("j1"), collectDone(ch))
	}()
	select {
	case err := <-dispatched:
		t.Fatalf("dispatch returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	w := &Worker{Coord: c, Info: WorkerInfo{ID: "w1"}, Runner: &stubRunner{}}
	startWorker(t, w)
	if err := <-dispatched; err != nil {
		t.Fatalf("dispatch after join: %v", err)
	}
	if rec := <-ch; rec.err != nil {
		t.Fatalf("done err = %v", rec.err)
	}
}

// TestDispatchNoWorkerFits: a task too big for every budget fails fast
// with ErrNoWorker when degradation is off, and degrades when on.
func TestDispatchNoWorkerFits(t *testing.T) {
	c := startCoordinator(t, Config{LeaseTTL: time.Second})
	w := &Worker{Coord: c, Info: WorkerInfo{ID: "w1", MemBudgetBytes: 1 << 10}, Runner: &stubRunner{}}
	startWorker(t, w)
	big := testTask("j1")
	big.Estimate = 1 << 30
	err := c.Dispatch(context.Background(), big, collectDone(make(chan doneRec, 1)))
	if !errors.Is(err, ErrNoWorker) {
		t.Fatalf("err = %v, want ErrNoWorker", err)
	}

	cd := startCoordinator(t, Config{LeaseTTL: time.Second, DegradeOverBudget: true})
	var got atomic.Value
	wd := &Worker{Coord: cd, Info: WorkerInfo{ID: "w1", MemBudgetBytes: 1 << 10}, Runner: &stubRunner{},
		Before: func(t Task) error { got.Store(t); return nil }}
	startWorker(t, wd)
	ch := make(chan doneRec, 1)
	if err := cd.Dispatch(context.Background(), big, collectDone(ch)); err != nil {
		t.Fatalf("degraded dispatch: %v", err)
	}
	if rec := <-ch; rec.err != nil {
		t.Fatalf("done err = %v", rec.err)
	}
	dt := got.Load().(Task)
	opts := dt.Options.EngineOptions(dt.EngineWorkers, dt.DegradeBudget)
	if dt.DegradeBudget == 0 || opts.Workers != 1 || opts.MaxStates == 0 {
		t.Fatalf("degraded task = %+v", dt)
	}
}

// TestPlacementPrefersFit: among two workers, the one whose budget fits
// gets the task; placement is deterministic by load then id.
func TestPlacementPrefersFit(t *testing.T) {
	c := startCoordinator(t, Config{LeaseTTL: time.Second})
	var mu sync.Mutex
	ran := map[string]int{}
	mk := func(id string, budget uint64) *Worker {
		w := &Worker{Coord: c, Info: WorkerInfo{ID: id, MemBudgetBytes: budget}, Runner: &stubRunner{},
			Before: func(t Task) error { mu.Lock(); ran[id]++; mu.Unlock(); return nil }}
		startWorker(t, w)
		return w
	}
	mk("small", 1<<10)
	mk("large", 1<<30)
	ch := make(chan doneRec, 4)
	for i := 0; i < 4; i++ {
		task := testTask("j" + string(rune('0'+i)))
		task.Estimate = 1 << 20 // only "large" fits
		if err := c.Dispatch(context.Background(), task, collectDone(ch)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if rec := <-ch; rec.err != nil {
			t.Fatalf("done err = %v", rec.err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if ran["small"] != 0 || ran["large"] != 4 {
		t.Fatalf("placement ran = %v, want all on large", ran)
	}
}

// TestDispatchLocalBudget: in-process workers share
// Config.LocalMemBudgetBytes, and each grant to one reserves its task's
// estimate. A dispatch that does not fit blocks until a reservation is
// released, an over-budget estimate reserves the whole budget (the task
// runs alone instead of never), a canceled context unblocks a waiter, and
// completion, expiry and Stop each release. A remote worker is placed
// against its own budget.
func TestDispatchLocalBudget(t *testing.T) {
	c := startCoordinator(t, Config{LeaseTTL: time.Hour, LocalMemBudgetBytes: 100})
	if err := c.register(WorkerInfo{ID: "w1", Slots: 8}, false); err != nil {
		t.Fatal(err)
	}
	task := func(id string, estimate uint64) Task {
		tk := testTask(id)
		tk.Estimate = estimate
		return tk
	}
	ch := make(chan doneRec, 8)
	mustDispatch := func(tk Task) {
		t.Helper()
		if err := c.Dispatch(context.Background(), tk, collectDone(ch)); err != nil {
			t.Fatal(err)
		}
	}
	complete := func(jobID string) {
		t.Helper()
		tk, token, _, err := c.Next(context.Background(), "w1")
		if err != nil || tk.JobID != jobID {
			t.Fatalf("next = %s, %v; want %s", tk.JobID, err, jobID)
		}
		if !c.Complete(context.Background(), "w1", jobID, token, &verify.Result{}, nil) {
			t.Fatalf("completion of %s rejected", jobID)
		}
		<-ch
	}
	inUse := func(want uint64) {
		t.Helper()
		if got := c.LocalMemInUse(); got != want {
			t.Fatalf("local mem in use = %d, want %d", got, want)
		}
	}
	// blocked dispatches tk in the background and proves it waits.
	blocked := func(tk Task) chan error {
		t.Helper()
		res := make(chan error, 1)
		go func() { res <- c.Dispatch(context.Background(), tk, collectDone(ch)) }()
		select {
		case err := <-res:
			t.Fatalf("dispatch of %s returned %v while the budget was full", tk.JobID, err)
		case <-time.After(50 * time.Millisecond):
		}
		return res
	}

	// A second 60 of 100 waits for the first one's completion.
	mustDispatch(task("j1", 60))
	inUse(60)
	second := blocked(task("j2", 60))
	complete("j1")
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	inUse(60)

	// A waiter gives up when its context dies.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Dispatch(ctx, task("j3", 60), collectDone(ch)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ctx-bound dispatch error = %v, want DeadlineExceeded", err)
	}
	complete("j2")
	inUse(0)

	// An over-budget estimate reserves the whole budget: it runs alone.
	mustDispatch(task("big", 1000))
	inUse(100)
	small := blocked(task("small", 1))

	// A remote worker is not charged to the in-process budget.
	if err := c.register(WorkerInfo{ID: "r1"}, true); err != nil {
		t.Fatal(err)
	}
	if err := <-small; err != nil {
		t.Fatal(err)
	}
	inUse(100)

	// Expiry releases: the big lease (and the remote one) die unrenewed.
	c.expireDue(time.Now().Add(2 * time.Hour))
	for i := 0; i < 2; i++ {
		if rec := <-ch; !errors.Is(rec.err, ErrLeaseExpired) {
			t.Fatalf("done err = %v, want ErrLeaseExpired", rec.err)
		}
	}
	inUse(0)

	// Stop releases what is still reserved.
	mustDispatch(task("j4", 30))
	inUse(30)
	c.Stop()
	if rec := <-ch; !errors.Is(rec.err, context.Canceled) {
		t.Fatalf("done err = %v, want context.Canceled", rec.err)
	}
	inUse(0)

	// Without a budget nothing is reserved.
	free := startCoordinator(t, Config{LeaseTTL: time.Hour})
	if err := free.register(WorkerInfo{ID: "w1"}, false); err != nil {
		t.Fatal(err)
	}
	if err := free.Dispatch(context.Background(), task("huge", 1<<40), collectDone(ch)); err != nil {
		t.Fatal(err)
	}
	if got := free.LocalMemInUse(); got != 0 {
		t.Fatalf("unbudgeted local mem in use = %d, want 0", got)
	}
}

// TestLeaseExpiryFiresDone: a worker that blackholes heartbeats and hangs
// loses its lease; done fires with ErrLeaseExpired, the hung run's
// context is canceled, and its eventual completion is a dropped late
// result.
func TestLeaseExpiryFiresDone(t *testing.T) {
	var expired, late atomic.Int64
	c := startCoordinator(t, Config{
		LeaseTTL: 80 * time.Millisecond,
		Events: Events{
			LeaseExpired: func(jobID, workerID string) { expired.Add(1) },
			LateResult:   func(jobID, workerID string) { late.Add(1) },
		},
	})
	completed := make(chan struct{})
	w := &Worker{
		Coord: c, Info: WorkerInfo{ID: "w1"},
		Runner:          &stubRunner{delay: time.Minute},
		HeartbeatFilter: func(workerID, jobID string) bool { return false },
	}
	// Wrap Complete observation: when the hung run's ctx cancels, the loop
	// completes late. Signal through a second dispatched task instead:
	// after expiry the worker loop unblocks and serves again.
	w.Before = nil
	startWorker(t, w)
	ch := make(chan doneRec, 1)
	if err := c.Dispatch(context.Background(), testTask("j1"), collectDone(ch)); err != nil {
		t.Fatal(err)
	}
	rec := <-ch
	if !errors.Is(rec.err, ErrLeaseExpired) {
		t.Fatalf("done err = %v, want ErrLeaseExpired", rec.err)
	}
	if expired.Load() != 1 {
		t.Fatalf("expired events = %d, want 1", expired.Load())
	}
	// The canceled run completes late; wait for the late-result count.
	deadline := time.Now().Add(2 * time.Second)
	for late.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if late.Load() == 0 {
		t.Fatal("late result never recorded")
	}
	close(completed)
}

// TestHeartbeatKeepsLeaseAlive: a task longer than the TTL survives when
// heartbeats flow.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	c := startCoordinator(t, Config{LeaseTTL: 60 * time.Millisecond, HeartbeatInterval: 15 * time.Millisecond})
	w := &Worker{Coord: c, Info: WorkerInfo{ID: "w1"}, Runner: &stubRunner{delay: 250 * time.Millisecond}}
	startWorker(t, w)
	ch := make(chan doneRec, 1)
	if err := c.Dispatch(context.Background(), testTask("j1"), collectDone(ch)); err != nil {
		t.Fatal(err)
	}
	if rec := <-ch; rec.err != nil || rec.rep == nil {
		t.Fatalf("done = %+v, want clean report", rec)
	}
}

// TestCompleteExactlyOnce: expiry and completion race; done fires once.
func TestCompleteExactlyOnce(t *testing.T) {
	c := startCoordinator(t, Config{LeaseTTL: 50 * time.Millisecond})
	if err := c.register(WorkerInfo{ID: "w1"}, false); err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	done := func(rep *verify.Result, workerID string, err error) { fired.Add(1) }
	if err := c.Dispatch(context.Background(), testTask("j1"), done); err != nil {
		t.Fatal(err)
	}
	// Pull the task so it is "running", never heartbeat, let it expire,
	// then complete late.
	_, token, _, err := c.Next(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if accepted := c.Complete(context.Background(), "w1", "j1", token, &verify.Result{}, nil); accepted {
		t.Fatal("late completion was accepted")
	}
	if fired.Load() != 1 {
		t.Fatalf("done fired %d times, want 1", fired.Load())
	}
}

// TestStaleTokenCompleteDropped pins the fencing-token contract against
// the ABA shape the chaos suite caught: a lease expires, the job is
// re-granted to the SAME worker, and the old attempt's completion arrives
// carrying the stale token. It must be dropped as a late result, never
// accepted as the new attempt's outcome.
func TestStaleTokenCompleteDropped(t *testing.T) {
	var late atomic.Int64
	c := startCoordinator(t, Config{
		LeaseTTL: 50 * time.Millisecond,
		Events:   Events{LateResult: func(jobID, workerID string) { late.Add(1) }},
	})
	if err := c.register(WorkerInfo{ID: "w1", Slots: 2}, false); err != nil {
		t.Fatal(err)
	}
	ch1 := make(chan doneRec, 1)
	if err := c.Dispatch(context.Background(), testTask("j1"), collectDone(ch1)); err != nil {
		t.Fatal(err)
	}
	_, stale, _, err := c.Next(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	// Never heartbeat: the lease expires and the job goes back out — to
	// the same worker, since it is the only one.
	if rec := <-ch1; !errors.Is(rec.err, ErrLeaseExpired) {
		t.Fatalf("first attempt err = %v, want ErrLeaseExpired", rec.err)
	}
	ch2 := make(chan doneRec, 1)
	if err := c.Dispatch(context.Background(), testTask("j1"), collectDone(ch2)); err != nil {
		t.Fatal(err)
	}
	_, fresh, _, err := c.Next(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == stale {
		t.Fatalf("re-grant reused token %d", stale)
	}
	if accepted := c.Complete(context.Background(), "w1", "j1", stale, nil, context.Canceled); accepted {
		t.Fatal("stale-token completion was accepted as the current attempt")
	}
	if late.Load() != 1 {
		t.Fatalf("late results = %d, want 1", late.Load())
	}
	if accepted := c.Complete(context.Background(), "w1", "j1", fresh, &verify.Result{}, nil); !accepted {
		t.Fatal("current-token completion rejected")
	}
	if rec := <-ch2; rec.err != nil || rec.rep == nil {
		t.Fatalf("second attempt done = %+v", rec)
	}
}

// TestWorkerPanicIsCaptured: a panicking Before hook surfaces as
// ErrWorkerPanic through done, and the worker loop survives to run the
// next task.
func TestWorkerPanicIsCaptured(t *testing.T) {
	c := startCoordinator(t, Config{LeaseTTL: time.Second})
	var first atomic.Bool
	w := &Worker{Coord: c, Info: WorkerInfo{ID: "w1"}, Runner: &stubRunner{},
		Before: func(t Task) error {
			if first.CompareAndSwap(false, true) {
				panic("injected")
			}
			return nil
		}}
	startWorker(t, w)
	ch := make(chan doneRec, 2)
	if err := c.Dispatch(context.Background(), testTask("j1"), collectDone(ch)); err != nil {
		t.Fatal(err)
	}
	if rec := <-ch; !errors.Is(rec.err, ErrWorkerPanic) {
		t.Fatalf("done err = %v, want ErrWorkerPanic", rec.err)
	}
	if err := c.Dispatch(context.Background(), testTask("j2"), collectDone(ch)); err != nil {
		t.Fatal(err)
	}
	if rec := <-ch; rec.err != nil {
		t.Fatalf("second task err = %v, want nil", rec.err)
	}
}

// TestStopFiresCanceled: outstanding leases at Stop fire done with
// context.Canceled (the service journals them replayable).
func TestStopFiresCanceled(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Second})
	c.Start()
	w := &Worker{Coord: c, Info: WorkerInfo{ID: "w1"}, Runner: &stubRunner{delay: time.Minute}}
	startWorker(t, w)
	ch := make(chan doneRec, 1)
	if err := c.Dispatch(context.Background(), testTask("j1"), collectDone(ch)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the worker pull it
	c.Stop()
	if rec := <-ch; !errors.Is(rec.err, context.Canceled) {
		t.Fatalf("done err = %v, want context.Canceled", rec.err)
	}
	w.Wait() // loops exit on ErrStopped
}

// TestRecoverAcceptsRejoinedCompletion: a journal-recovered lease is
// completed by its worker after re-join; no expiry fires.
func TestRecoverAcceptsRejoinedCompletion(t *testing.T) {
	c := startCoordinator(t, Config{LeaseTTL: time.Second})
	ch := make(chan doneRec, 1)
	c.Recover(testTask("j1"), "w1", time.Now().Add(500*time.Millisecond), collectDone(ch))
	if err := c.register(WorkerInfo{ID: "w1"}, true); err != nil {
		t.Fatal(err)
	}
	// The worker's token predates the restart, so any value must match the
	// recovered lease (the pre-crash grant's token is unknowable here).
	if accepted := c.Complete(context.Background(), "w1", "j1", 7777, &verify.Result{SelfStabilizing: true}, nil); !accepted {
		t.Fatal("recovered completion rejected")
	}
	if rec := <-ch; rec.err != nil || rec.rep == nil || !rec.rep.SelfStabilizing {
		t.Fatalf("done = %+v", rec)
	}
}

// TestRecoverExpiresOnce: a recovered lease whose worker never returns
// expires exactly once.
func TestRecoverExpiresOnce(t *testing.T) {
	var expired atomic.Int64
	c := startCoordinator(t, Config{
		LeaseTTL: 50 * time.Millisecond,
		Events:   Events{LeaseExpired: func(jobID, workerID string) { expired.Add(1) }},
	})
	ch := make(chan doneRec, 1)
	c.Recover(testTask("j1"), "ghost", time.Now().Add(40*time.Millisecond), collectDone(ch))
	rec := <-ch
	if !errors.Is(rec.err, ErrLeaseExpired) {
		t.Fatalf("done err = %v, want ErrLeaseExpired", rec.err)
	}
	time.Sleep(60 * time.Millisecond)
	if expired.Load() != 1 {
		t.Fatalf("expired %d times, want 1", expired.Load())
	}
}

// TestRemoteWorkerRoundTrip: the full HTTP path — join, poll, heartbeat,
// complete — through an httptest server, producing the same done result
// as the in-process path.
func TestRemoteWorkerRoundTrip(t *testing.T) {
	c := startCoordinator(t, Config{LeaseTTL: 300 * time.Millisecond, HeartbeatInterval: 50 * time.Millisecond})
	mux := newTestMux(c)
	srv := newTestServer(t, mux)

	startWorker(t, &Worker{
		Coord:  &Client{URL: srv.URL},
		Info:   WorkerInfo{ID: "rw1"},
		Runner: &stubRunner{delay: 500 * time.Millisecond}, // outlives the TTL: heartbeats must carry it
	})

	ch := make(chan doneRec, 1)
	if err := c.Dispatch(context.Background(), testTask("j1"), collectDone(ch)); err != nil {
		t.Fatal(err)
	}
	select {
	case rec := <-ch:
		if rec.err != nil || rec.rep == nil || rec.worker != "rw1" {
			t.Fatalf("done = %+v", rec)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("remote completion never arrived")
	}
}

// TestRemotePollRefusalRunsNothing: a poll the coordinator refuses — a
// stopped coordinator answers 503, a node that admits no workers 404 —
// carries no assignment, so the worker backs off instead of running an
// empty task.
func TestRemotePollRefusalRunsNothing(t *testing.T) {
	for _, status := range []int{http.StatusServiceUnavailable, http.StatusNotFound} {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /cluster/v1/join", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"lease_ttl_ms": 1000, "heartbeat_ms": 100}`))
		})
		mux.HandleFunc("POST /cluster/v1/poll", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
		})
		mux.HandleFunc("POST /cluster/v1/", func(w http.ResponseWriter, r *http.Request) {})
		srv := newTestServer(t, mux)
		var before atomic.Int64
		runner := &stubRunner{}
		rw := &Worker{
			Coord:  &Client{URL: srv.URL},
			Info:   WorkerInfo{ID: "rw1"},
			Runner: runner,
			Before: func(Task) error { before.Add(1); return nil },
		}
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		if err := rw.Start(ctx); err != nil {
			t.Fatal(err)
		}
		rw.Wait()
		cancel()
		if n, m := before.Load(), runner.calls.Load(); n != 0 || m != 0 {
			t.Errorf("poll answered %d: ran %d before hooks and %d tasks, want none", status, n, m)
		}
	}
}

// TestJoinedWorkerCannotTakeInProcessID: a join over HTTP under an
// in-process worker's id is refused 409 and leaves that registration as it
// was, and a poll, heartbeat or complete naming the id over HTTP is
// answered 410 without handing out, renewing or completing the in-process
// worker's lease, which its own worker still pulls.
func TestJoinedWorkerCannotTakeInProcessID(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Hour})
	defer c.Stop()
	ctx := context.Background()
	local := WorkerInfo{ID: "coordinator-w0", Slots: 1}
	if _, err := c.Join(ctx, local); err != nil {
		t.Fatal(err)
	}
	done := make(chan doneRec, 1)
	if err := c.Dispatch(ctx, testTask("j1"), collectDone(done)); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	held := c.leases["j1"]
	token, expiry := held.token, held.expiry
	c.mu.Unlock()

	mux := newTestMux(c)
	post := func(route, body string) int {
		rctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/cluster/v1/"+route, strings.NewReader(body)).WithContext(rctx)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post("join", `{"id": "coordinator-w0", "slots": 50, "mem_budget_bytes": 1}`); code != http.StatusConflict {
		t.Fatalf("join under an in-process id: status %d, want 409", code)
	}
	if got := c.Workers(); len(got) != 1 || got[0] != local {
		t.Fatalf("registry after the refused join: %+v, want [%+v]", got, local)
	}
	for _, r := range []struct{ route, body string }{
		{"poll", `{"worker_id": "coordinator-w0", "wait_ms": 20}`},
		{"heartbeat", fmt.Sprintf(`{"worker_id": "coordinator-w0", "job_id": "j1", "token": %d}`, token)},
		{"complete", fmt.Sprintf(`{"worker_id": "coordinator-w0", "job_id": "j1", "token": %d, "result": {"protocol": "forged"}}`, token)},
	} {
		if code := post(r.route, r.body); code != http.StatusGone {
			t.Fatalf("%s naming an in-process worker: status %d, want 410", r.route, code)
		}
	}
	c.mu.Lock()
	l, m := c.leases["j1"], c.workers["coordinator-w0"]
	untouched := l == held && l.token == token && l.expiry.Equal(expiry) && !m.remote && len(m.queue) == 1
	c.mu.Unlock()
	if !untouched {
		t.Fatal("a request over HTTP changed the in-process worker's lease or registration")
	}
	select {
	case d := <-done:
		t.Fatalf("the in-process lease was completed over HTTP: %+v", d)
	default:
	}
	if task, tok, _, err := c.Next(ctx, "coordinator-w0"); err != nil || task.JobID != "j1" || tok != token {
		t.Fatalf("in-process pull: %s token %d, %v; want j1 token %d", task.JobID, tok, err, token)
	}
}
