package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sync"
	"time"

	"paramring/internal/verify"
)

// Wire protocol, mounted under /cluster/v1/ on the coordinator:
//
//	POST /cluster/v1/join       WorkerInfo            -> joinResponse
//	POST /cluster/v1/poll       pollRequest           -> assignment | 204 | 410
//	POST /cluster/v1/heartbeat  heartbeatRequest      -> 200 | 404 | 410
//	POST /cluster/v1/complete   completeRequest       -> completeResponse
//	POST /cluster/v1/leave      leaveRequest          -> 200
//
// 410 Gone always means "re-join": the worker's registration was dropped
// after a lease expiry. 404 on heartbeat means the specific lease is gone
// (the job has moved on) — abandon the attempt, keep the registration.
// The assignment's fencing token must be echoed on every heartbeat and
// the complete for that attempt; a stale token is a late result.

const (
	maxClusterBodyBytes = 1 << 20
	defaultPollWait     = 5 * time.Second
	maxPollWait         = 30 * time.Second
)

type joinResponse struct {
	LeaseTTLMS  int64 `json:"lease_ttl_ms"`
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

type pollRequest struct {
	WorkerID string `json:"worker_id"`
	WaitMS   int64  `json:"wait_ms,omitempty"`
}

// assignment is one granted task plus the lease fencing token the worker
// must present on heartbeat and complete.
type assignment struct {
	Task  Task   `json:"task"`
	Token uint64 `json:"token"`
}

type heartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	JobID    string `json:"job_id"`
	Token    uint64 `json:"token"`
}

type leaveRequest struct {
	WorkerID string `json:"worker_id"`
}

// completeRequest carries an attempt outcome: the projected result, or an
// error classified on the worker side (kind) so the coordinator can
// reconstruct an error the service's finishAttempt classification treats
// exactly like a local one.
type completeRequest struct {
	WorkerID string         `json:"worker_id"`
	JobID    string         `json:"job_id"`
	Token    uint64         `json:"token"`
	Result   *verify.Result `json:"result,omitempty"`
	Error    string         `json:"error,omitempty"`
	// Kind is one of "", "panic", "canceled", "deadline". Empty with a
	// non-empty Error is a deterministic engine/compile failure.
	Kind string `json:"kind,omitempty"`
}

type completeResponse struct {
	Accepted bool `json:"accepted"`
}

// classifyWireError splits an attempt error into (kind, message) for the
// wire.
func classifyWireError(err error) (kind, msg string) {
	if err == nil {
		return "", ""
	}
	switch {
	case errors.Is(err, ErrWorkerPanic):
		return "panic", err.Error()
	case errors.Is(err, context.Canceled):
		return "canceled", err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline", err.Error()
	default:
		return "", err.Error()
	}
}

// wireError reconstructs the worker-side error so errors.Is classification
// on the coordinator matches in-process execution.
func wireError(kind, msg string) error {
	if msg == "" && kind == "" {
		return nil
	}
	switch kind {
	case "panic":
		return fmt.Errorf("%w: %s", ErrWorkerPanic, msg)
	case "canceled":
		return fmt.Errorf("%s: %w", msg, context.Canceled)
	case "deadline":
		return fmt.Errorf("%s: %w", msg, context.DeadlineExceeded)
	default:
		return errors.New(msg)
	}
}

// Mount registers the coordinator's cluster endpoints on mux.
func Mount(mux *http.ServeMux, c *Coordinator) {
	mux.HandleFunc("POST /cluster/v1/join", func(w http.ResponseWriter, r *http.Request) {
		var info WorkerInfo
		if !decodeClusterJSON(w, r, &info) {
			return
		}
		if err := c.Join(info); err != nil {
			clusterError(w, err)
			return
		}
		cfg := c.cfg
		clusterJSON(w, http.StatusOK, joinResponse{
			LeaseTTLMS:  cfg.LeaseTTL.Milliseconds(),
			HeartbeatMS: cfg.HeartbeatInterval.Milliseconds(),
		})
	})
	mux.HandleFunc("POST /cluster/v1/poll", func(w http.ResponseWriter, r *http.Request) {
		var req pollRequest
		if !decodeClusterJSON(w, r, &req) {
			return
		}
		wait := defaultPollWait
		if req.WaitMS > 0 {
			wait = time.Duration(req.WaitMS) * time.Millisecond
		}
		if wait > maxPollWait {
			wait = maxPollWait
		}
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		// The lease-bound context stays coordinator-side; a remote worker
		// bounds its run by the task deadline and the lease protocol.
		t, token, _, err := c.Next(ctx, req.WorkerID)
		switch {
		case err == nil:
			clusterJSON(w, http.StatusOK, assignment{Task: t, Token: token})
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			w.WriteHeader(http.StatusNoContent)
		default:
			clusterError(w, err)
		}
	})
	mux.HandleFunc("POST /cluster/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !decodeClusterJSON(w, r, &req) {
			return
		}
		if err := c.Heartbeat(req.WorkerID, req.JobID, req.Token); err != nil {
			clusterError(w, err)
			return
		}
		clusterJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /cluster/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if !decodeClusterJSON(w, r, &req) {
			return
		}
		werr := wireError(req.Kind, req.Error)
		if req.Result == nil && werr == nil {
			// Malformed: the lease stays outstanding until it expires and
			// the job re-dispatches.
			http.Error(w, "completion carries neither a result nor an error", http.StatusBadRequest)
			return
		}
		accepted := c.Complete(req.WorkerID, req.JobID, req.Token, req.Result, werr)
		clusterJSON(w, http.StatusOK, completeResponse{Accepted: accepted})
	})
	mux.HandleFunc("POST /cluster/v1/leave", func(w http.ResponseWriter, r *http.Request) {
		var req leaveRequest
		if !decodeClusterJSON(w, r, &req) {
			return
		}
		c.Leave(req.WorkerID)
		clusterJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
}

func decodeClusterJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxClusterBodyBytes+1))
	if err != nil || len(body) > maxClusterBodyBytes {
		http.Error(w, "request body too large or unreadable", http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, dst); err != nil {
		http.Error(w, "malformed JSON: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func clusterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func clusterError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownWorker):
		http.Error(w, err.Error(), http.StatusGone)
	case errors.Is(err, ErrLeaseGone):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrStopped):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// Remote is the worker side of the HTTP transport: it joins a
// coordinator, long-polls for tasks, renews leases, and reports
// completions, running tasks through the same Runner seam as in-process
// execution — which is what makes remote and local verdicts
// byte-identical.
type Remote struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	Info        WorkerInfo
	Runner      Runner
	// Before and HeartbeatFilter mirror LocalWorker's fault-injection
	// seams.
	Before          func(t Task) error
	HeartbeatFilter func(workerID, jobID string) bool
	Client          *http.Client
	Log             *log.Logger
	// PollWait bounds each long poll (default 5s).
	PollWait time.Duration

	heartbeatEvery time.Duration
}

// Run joins the coordinator and serves tasks until ctx is done, then
// leaves cleanly. Join failures retry with capped backoff; a 410 from
// any call triggers a re-join.
func (rw *Remote) Run(ctx context.Context) error {
	if rw.Coordinator == "" {
		return errors.New("cluster: remote worker: empty coordinator URL")
	}
	if _, err := url.ParseRequestURI(rw.Coordinator); err != nil {
		return fmt.Errorf("cluster: remote worker: bad coordinator URL: %w", err)
	}
	if err := rw.joinLoop(ctx); err != nil {
		return err
	}
	defer rw.leave()

	var wg sync.WaitGroup
	defer wg.Wait()
	slots := rw.Info.slots()
	errs := make(chan error, slots)
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- rw.serve(ctx)
		}()
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case err := <-errs:
		return err
	}
}

func (rw *Remote) serve(ctx context.Context) error {
	for {
		a, status, err := rw.poll(ctx)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case status == http.StatusGone:
			if err := rw.joinLoop(ctx); err != nil {
				return err
			}
			continue
		case status == http.StatusNoContent:
			continue
		case err == nil && status != http.StatusOK:
			// A stopped coordinator (503), or a node that admits no
			// workers (404): there is no assignment to run.
			err = fmt.Errorf("HTTP %d", status)
		}
		if err != nil {
			rw.logf("poll: %v (retrying)", err)
			if !sleepCtx(ctx, time.Second) {
				return ctx.Err()
			}
			continue
		}
		rw.execute(ctx, a)
	}
}

// execute runs one assigned task bounded by its deadline, heartbeating
// under the assignment's fencing token until done.
func (rw *Remote) execute(ctx context.Context, a assignment) {
	t := a.Task
	runCtx, cancel := context.WithDeadline(ctx, t.Deadline())
	hbStop := rw.heartbeats(runCtx, cancel, t.JobID, a.Token)
	res, rerr := RunTask(runCtx, rw.Runner, t, rw.Before)
	hbStop()
	cancel()
	kind, msg := classifyWireError(rerr)
	var resp completeResponse
	status, err := rw.post(ctx, "/cluster/v1/complete", completeRequest{
		WorkerID: rw.Info.ID, JobID: t.JobID, Token: a.Token,
		Result: res, Error: msg, Kind: kind,
	}, &resp)
	if err != nil {
		rw.logf("complete %s: %v (result lost; lease will expire)", t.JobID, err)
		return
	}
	if status == http.StatusOK && !resp.Accepted {
		rw.logf("complete %s: dropped as late result", t.JobID)
	}
}

// heartbeats renews the task lease on the joined cadence; a 404 (lease
// gone) aborts the run — the job has been re-dispatched elsewhere.
func (rw *Remote) heartbeats(ctx context.Context, abort context.CancelFunc, jobID string, token uint64) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	every := rw.heartbeatEvery
	if every <= 0 {
		every = time.Second
	}
	go func() {
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-ticker.C:
				if rw.HeartbeatFilter != nil && !rw.HeartbeatFilter(rw.Info.ID, jobID) {
					continue
				}
				status, err := rw.post(ctx, "/cluster/v1/heartbeat", heartbeatRequest{WorkerID: rw.Info.ID, JobID: jobID, Token: token}, nil)
				if err != nil {
					rw.logf("heartbeat %s: %v", jobID, err)
					continue
				}
				if status == http.StatusNotFound || status == http.StatusGone {
					rw.logf("heartbeat %s: lease gone; abandoning attempt", jobID)
					abort()
					return
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// joinLoop joins with capped exponential backoff until success or ctx
// done, and records the coordinator's advertised heartbeat cadence.
func (rw *Remote) joinLoop(ctx context.Context) error {
	delay := 100 * time.Millisecond
	for {
		var resp joinResponse
		status, err := rw.post(ctx, "/cluster/v1/join", rw.Info, &resp)
		if err == nil && status == http.StatusOK {
			if resp.HeartbeatMS > 0 {
				rw.heartbeatEvery = time.Duration(resp.HeartbeatMS) * time.Millisecond
			}
			return nil
		}
		if err == nil {
			err = fmt.Errorf("join: HTTP %d", status)
		}
		rw.logf("join: %v (retrying in %s)", err, delay)
		if !sleepCtx(ctx, delay) {
			return ctx.Err()
		}
		if delay *= 2; delay > 5*time.Second {
			delay = 5 * time.Second
		}
	}
}

func (rw *Remote) leave() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rw.post(ctx, "/cluster/v1/leave", leaveRequest{WorkerID: rw.Info.ID}, nil)
}

// poll long-polls for the next assignment. Returns the HTTP status; 204
// means no task this window.
func (rw *Remote) poll(ctx context.Context) (assignment, int, error) {
	wait := rw.PollWait
	if wait <= 0 {
		wait = defaultPollWait
	}
	var a assignment
	status, err := rw.post(ctx, "/cluster/v1/poll", pollRequest{WorkerID: rw.Info.ID, WaitMS: wait.Milliseconds()}, &a)
	return a, status, err
}

// post issues one JSON round trip. Non-2xx statuses are returned, not
// errors, so callers can branch on protocol statuses (204/404/410).
func (rw *Remote) post(ctx context.Context, path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rw.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	client := rw.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxClusterBodyBytes))
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s: bad response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

func (rw *Remote) logf(format string, args ...any) {
	if rw.Log != nil {
		rw.Log.Printf("worker %s: "+format, append([]any{rw.Info.ID}, args...)...)
	}
}

// sleepCtx sleeps for d or until ctx is done; reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
