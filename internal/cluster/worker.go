package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"paramring/internal/verify"
)

// RunTask executes one attempt of t through r. It is the attempt's only
// recover boundary — LocalWorker and Remote both run through it — so a
// panic in the before hook or the engine becomes an ErrWorkerPanic-wrapped
// error carrying the panic value and stack instead of killing the caller,
// and the retry accounting sees it like any other transient failure.
func RunTask(ctx context.Context, r Runner, t Task, before func(Task) error) (res *verify.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = fmt.Errorf("%w: job %s attempt %d: %v\n%s", ErrWorkerPanic, t.JobID, t.Attempt, p, debug.Stack())
		}
	}()
	if before != nil {
		if herr := before(t); herr != nil {
			return nil, herr
		}
	}
	return r.Run(ctx, t)
}

// LocalWorker is an in-process cluster worker: the same pull / heartbeat
// / complete protocol as a remote lrserved worker, minus the HTTP hop.
// Every lrserved runs its engine workers as LocalWorkers sharing one
// LocalRunner, each a registered one-slot member of its coordinator.
type LocalWorker struct {
	Coord  *Coordinator
	Info   WorkerInfo
	Runner Runner
	// Before runs before each task inside the recover boundary — the
	// service wires its BeforeVerify fault hook here.
	Before func(t Task) error
	// HeartbeatFilter, when set, gates each renewal: returning false
	// swallows the heartbeat (the blackhole fault plan). The worker keeps
	// running the task; only the renewal is lost.
	HeartbeatFilter func(workerID, jobID string) bool

	interval time.Duration
	stop     context.CancelFunc
	wg       sync.WaitGroup
}

// Start registers the worker and launches one pull loop per slot.
func (w *LocalWorker) Start() error {
	if err := w.Coord.register(w.Info, false); err != nil {
		return err
	}
	w.interval = w.Coord.cfg.HeartbeatInterval
	ctx, cancel := context.WithCancel(context.Background())
	w.stop = cancel
	for i := 0; i < w.Info.slots(); i++ {
		w.wg.Add(1)
		go w.loop(ctx)
	}
	return nil
}

// Wait blocks until every pull loop has exited (they exit when the
// coordinator stops, or on Stop).
func (w *LocalWorker) Wait() {
	w.wg.Wait()
}

// Stop ends the pull loops, each once it has reported its attempt in
// flight through Complete, and waits for them. A task granted to the
// worker but not yet pulled stays with the coordinator, whose Stop fails
// it.
func (w *LocalWorker) Stop() {
	w.stop()
	w.wg.Wait()
}

func (w *LocalWorker) loop(stopped context.Context) {
	defer w.wg.Done()
	for stopped.Err() == nil {
		t, token, ctx, err := w.Coord.Next(stopped, w.Info.ID)
		if err != nil {
			if errors.Is(err, ErrUnknownWorker) {
				// Dropped from the registry (a lease expired on us); local
				// workers are still alive, so re-join and keep serving.
				if w.Coord.register(w.Info, false) != nil {
					return
				}
				continue
			}
			return // ErrStopped, or Stop
		}
		stop := w.heartbeats(t.JobID, token)
		res, rerr := RunTask(ctx, w.Runner, t, w.Before)
		stop()
		w.Coord.Complete(w.Info.ID, t.JobID, token, res, rerr)
	}
}

// heartbeats renews the lease for jobID under its fencing token on the
// configured cadence until the returned stop function is called or the
// lease dies.
func (w *LocalWorker) heartbeats(jobID string, token uint64) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		ticker := time.NewTicker(w.interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if w.HeartbeatFilter != nil && !w.HeartbeatFilter(w.Info.ID, jobID) {
					continue
				}
				err := w.Coord.Heartbeat(w.Info.ID, jobID, token)
				if err != nil && !errors.Is(err, ErrUnknownWorker) {
					// ErrLeaseGone / ErrStopped: nothing left to renew. The
					// run context was canceled at expiry; let the loop's
					// Complete surface as a late result.
					return
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
