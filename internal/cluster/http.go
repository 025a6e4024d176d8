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
		if err := c.register(info, true); err != nil {
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
			wait = time.Duration(min(req.WaitMS, maxPollWait.Milliseconds())) * time.Millisecond
		}
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		// The lease-bound context stays coordinator-side; a joined worker
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
		if err := c.Heartbeat(r.Context(), req.WorkerID, req.JobID, req.Token); err != nil {
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
		accepted := c.Complete(r.Context(), req.WorkerID, req.JobID, req.Token, req.Result, werr)
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

// Client reaches a coordinator over /cluster/v1/*: the Coord of an
// lrserved -join worker. It keeps the joined worker's semantics inside its
// calls. Join retries with capped backoff until the coordinator answers.
// Next long-polls and waits 1 s after a refused poll, so a joined worker
// outlives a coordinator restart, and it hands the attempt the worker's
// own context: the worker's shutdown cancels the attempt, and Complete,
// which posts under that context, then reports nothing, so the lease
// expires and the job re-dispatches. Heartbeat maps 404 and 410 onto
// ErrLeaseGone and ErrUnknownWorker, on which the Worker abandons the
// attempt. Leave tells the coordinator on the way out.
type Client struct {
	// URL is the coordinator's base URL (http://host:port).
	URL string
	// Log receives transport warnings (nil = none).
	Log *log.Logger
}

// Join implements Coord.
func (c *Client) Join(ctx context.Context, info WorkerInfo) (time.Duration, error) {
	if _, err := url.ParseRequestURI(c.URL); err != nil {
		return 0, fmt.Errorf("cluster: bad coordinator URL: %w", err)
	}
	delay := 100 * time.Millisecond
	for {
		var resp joinResponse
		status, err := c.post(ctx, "/cluster/v1/join", info, &resp)
		if err == nil && status == http.StatusOK {
			if resp.HeartbeatMS <= 0 {
				return time.Second, nil
			}
			return time.Duration(resp.HeartbeatMS) * time.Millisecond, nil
		}
		if err == nil {
			err = fmt.Errorf("HTTP %d", status)
		}
		c.logf(info.ID, "join: %v (retrying in %s)", err, delay)
		if !sleepCtx(ctx, delay) {
			return 0, ctx.Err()
		}
		delay = min(2*delay, 5*time.Second)
	}
}

// Next implements Coord.
func (c *Client) Next(ctx context.Context, workerID string) (Task, uint64, context.Context, error) {
	for {
		var a assignment
		status, err := c.post(ctx, "/cluster/v1/poll", pollRequest{WorkerID: workerID}, &a)
		if ctx.Err() != nil {
			return Task{}, 0, nil, ctx.Err()
		}
		if err == nil {
			switch status {
			case http.StatusOK:
				return a.Task, a.Token, ctx, nil
			case http.StatusNoContent:
				continue
			case http.StatusGone:
				return Task{}, 0, nil, ErrUnknownWorker
			}
			// A stopped coordinator (503), or a node that admits no
			// workers (404): there is no assignment to run.
			err = fmt.Errorf("HTTP %d", status)
		}
		c.logf(workerID, "poll: %v (retrying)", err)
		if !sleepCtx(ctx, time.Second) {
			return Task{}, 0, nil, ctx.Err()
		}
	}
}

// Heartbeat implements Coord.
func (c *Client) Heartbeat(ctx context.Context, workerID, jobID string, token uint64) error {
	status, err := c.post(ctx, "/cluster/v1/heartbeat", heartbeatRequest{WorkerID: workerID, JobID: jobID, Token: token}, nil)
	if err == nil {
		err = statusError(status)
	}
	if err != nil && ctx.Err() == nil {
		c.logf(workerID, "heartbeat %s: %v", jobID, err)
	}
	return err
}

// Complete implements Coord.
func (c *Client) Complete(ctx context.Context, workerID, jobID string, token uint64, res *verify.Result, err error) bool {
	kind, msg := classifyWireError(err)
	var resp completeResponse
	status, perr := c.post(ctx, "/cluster/v1/complete", completeRequest{
		WorkerID: workerID, JobID: jobID, Token: token,
		Result: res, Error: msg, Kind: kind,
	}, &resp)
	switch {
	case perr != nil:
		c.logf(workerID, "complete %s: %v (result lost; lease will expire)", jobID, perr)
	case status != http.StatusOK:
		c.logf(workerID, "complete %s: HTTP %d", jobID, status)
	case !resp.Accepted:
		c.logf(workerID, "complete %s: dropped as late result", jobID)
	}
	return perr == nil && status == http.StatusOK && resp.Accepted
}

// Leave implements Coord, within 2 s of its own: the worker's context is
// done by the time it leaves.
func (c *Client) Leave(workerID string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c.post(ctx, "/cluster/v1/leave", leaveRequest{WorkerID: workerID}, nil)
}

// statusError maps a coordinator's answer onto the error *Coordinator
// returns in process; it inverts clusterError.
func statusError(status int) error {
	switch status {
	case http.StatusOK:
		return nil
	case http.StatusNotFound:
		return ErrLeaseGone
	case http.StatusGone:
		return ErrUnknownWorker
	case http.StatusServiceUnavailable:
		return ErrStopped
	default:
		return fmt.Errorf("HTTP %d", status)
	}
}

// post issues one JSON round trip. Non-2xx statuses are returned, not
// errors, so callers can branch on protocol statuses (204/404/410).
func (c *Client) post(ctx context.Context, path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
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

func (c *Client) logf(workerID, format string, args ...any) {
	if c.Log != nil {
		c.Log.Printf("worker %s: "+format, append([]any{workerID}, args...)...)
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
