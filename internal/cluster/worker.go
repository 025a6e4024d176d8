package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"paramring/internal/verify"
)

// Coord is the worker's half of the lease protocol: what a Worker needs of
// its coordinator. *Coordinator implements it in process and *Client over
// /cluster/v1/* for lrserved -join. Each implementation keeps its
// transport's semantics inside its own calls — which context an attempt
// runs under, whether a completion is reported after the worker's own
// shutdown, how a refused call is retried, whether the worker ever leaves
// — so the Worker loop never asks which one it reaches.
type Coord interface {
	// Join registers info and returns the heartbeat cadence the
	// coordinator asks for.
	Join(ctx context.Context, info WorkerInfo) (time.Duration, error)
	// Next blocks until a task is granted to workerID and returns it with
	// its lease fencing token and the context its attempt runs under.
	// ErrUnknownWorker asks the worker to re-join; any other error ends
	// the pull loop.
	Next(ctx context.Context, workerID string) (Task, uint64, context.Context, error)
	// Heartbeat renews a lease. ErrLeaseGone and ErrUnknownWorker mean
	// the job has moved on.
	Heartbeat(ctx context.Context, workerID, jobID string, token uint64) error
	// Complete reports an attempt's outcome and whether it was accepted.
	Complete(ctx context.Context, workerID, jobID string, token uint64, res *verify.Result, err error) bool
	// Leave deregisters the worker on its way out.
	Leave(workerID string)
}

// RunTask executes one attempt of t through r. It is the attempt's only
// recover boundary, so a panic in the before hook or the engine becomes an
// ErrWorkerPanic-wrapped error carrying the panic value and stack instead
// of killing the worker, and the retry accounting sees it like any other
// transient failure.
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

// Worker runs tasks for one coordinator, Info.Slots at a time: the
// in-process workers of every lrserved, with the *Coordinator itself as
// their Coord, and the worker of an lrserved -join process, with a
// *Client. Each slot runs one loop: pull a task, run it through RunTask
// under its lease context bounded by the task deadline while heartbeating
// under its fencing token, complete it, and re-join when the coordinator
// has forgotten the worker.
type Worker struct {
	Coord  Coord
	Info   WorkerInfo
	Runner Runner
	// Before runs before each task inside the recover boundary — the
	// service wires its BeforeVerify fault hook here.
	Before func(t Task) error
	// HeartbeatFilter, when set, gates each renewal: returning false
	// swallows the heartbeat (the blackhole fault plan). The worker keeps
	// running the task; only the renewal is lost.
	HeartbeatFilter func(workerID, jobID string) bool

	running sync.WaitGroup // pull loops still running
}

// Start joins the coordinator and returns once the worker is registered,
// with Info.Slots pull loops serving until ctx is done or the coordinator
// stops; the last loop to exit leaves. On a Join error nothing runs.
func (w *Worker) Start(ctx context.Context) error {
	every, err := w.Coord.Join(ctx, w.Info)
	if err != nil {
		return err
	}
	slots := w.Info.slots()
	var active atomic.Int64
	active.Store(int64(slots))
	w.running.Add(slots)
	for range slots {
		go func() {
			defer w.running.Done()
			w.serve(ctx, every)
			if active.Add(-1) == 0 {
				w.Coord.Leave(w.Info.ID)
			}
		}()
	}
	return nil
}

// Wait blocks until every pull loop has exited and the worker has left.
func (w *Worker) Wait() {
	w.running.Wait()
}

// serve is one slot's pull loop.
func (w *Worker) serve(ctx context.Context, every time.Duration) {
	for ctx.Err() == nil {
		t, token, leaseCtx, err := w.Coord.Next(ctx, w.Info.ID)
		if errors.Is(err, ErrUnknownWorker) {
			// Dropped from the registry after a lease expiry, but alive:
			// re-join and keep serving.
			if every, err = w.Coord.Join(ctx, w.Info); err != nil {
				return
			}
			continue
		}
		if err != nil {
			return // ctx done, or ErrStopped
		}
		w.attempt(ctx, leaseCtx, t, token, every)
	}
}

// attempt runs one granted task and reports its outcome.
func (w *Worker) attempt(ctx, leaseCtx context.Context, t Task, token uint64, every time.Duration) {
	runCtx, abandon := context.WithDeadline(leaseCtx, t.Deadline())
	defer abandon()
	stop := w.heartbeats(ctx, abandon, t.JobID, token, every)
	res, err := RunTask(runCtx, w.Runner, t, w.Before)
	stop()
	w.Coord.Complete(ctx, w.Info.ID, t.JobID, token, res, err)
}

// heartbeats renews the lease for jobID under its fencing token every
// interval until the returned stop function is called; stop returns once
// no renewal is in flight, so none follows the completion. A renewal
// answered ErrLeaseGone or ErrUnknownWorker means the job has moved on:
// abandon cancels the attempt, whose completion then arrives as a late
// result. Any other error leaves the renewal to the next tick.
func (w *Worker) heartbeats(ctx context.Context, abandon context.CancelFunc, jobID string, token uint64, every time.Duration) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			if w.HeartbeatFilter != nil && !w.HeartbeatFilter(w.Info.ID, jobID) {
				continue
			}
			err := w.Coord.Heartbeat(ctx, w.Info.ID, jobID, token)
			if errors.Is(err, ErrLeaseGone) || errors.Is(err, ErrUnknownWorker) {
				abandon()
				return
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}
