package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"paramring/internal/cluster"
	"paramring/internal/verify"
)

// joinedWorker is the worker an lrserved -join process runs: the
// coordinator at url reached over HTTP, and a runner of its own.
func joinedWorker(url, id string, before func(cluster.Task) error) *cluster.Worker {
	return &cluster.Worker{
		Coord:  &cluster.Client{URL: url, Log: log.New(io.Discard, "", 0)},
		Info:   cluster.WorkerInfo{ID: id},
		Runner: &cluster.LocalRunner{Specs: verify.NewSpecCache(0)},
		Before: before,
	}
}

// startWorkerNode joins a worker to the coordinator at url as lrserved
// -join does and returns a stop function that waits for it to leave.
func startWorkerNode(t *testing.T, url, id string) (stop func()) {
	t.Helper()
	w := joinedWorker(url, id, nil)
	ctx, cancel := context.WithCancel(context.Background())
	if err := w.Start(ctx); err != nil {
		cancel()
		t.Fatalf("worker node %s: %v", id, err)
	}
	return func() {
		cancel()
		w.Wait()
	}
}

// TestClusterRemoteWorkerParity: a coordinator with no in-process workers
// hands every job to a remote lrserved -join worker over HTTP, and the
// Result it caches is byte-identical to a single-node service's for every
// shipped spec, under cross-validation and under the invariant lane.
func TestClusterRemoteWorkerParity(t *testing.T) {
	specs := loadSpecs(t)
	single := newTestService(t, Config{Workers: 2}, true)
	coord := newTestService(t, Config{
		QueueSize: 64, Workers: -1,
		LeaseTTL: 5 * time.Second, HeartbeatInterval: 100 * time.Millisecond,
		Cluster: &ClusterConfig{},
	}, true)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	defer startWorkerNode(t, srv.URL, "remote-1")()

	for _, opts := range []RequestOptions{{CrossValidateMaxK: 6}, {Invariant: true}} {
		for name, src := range specs {
			req := Request{Spec: src, Options: opts}
			want := resultBytes(t, single, req)
			got := resultBytes(t, coord, req)
			if !bytes.Equal(got, want) {
				t.Errorf("%s %+v: remote-worker result diverges from single-node\n got %s\nwant %s", name, opts, got, want)
			}
		}
	}
	if granted := coord.Metrics().ClusterLeasesGranted.Load(); granted != uint64(2*len(specs)) {
		t.Fatalf("leases granted = %d, want %d: every job must run on the remote worker", granted, 2*len(specs))
	}
}

// resultBytes submits req, waits for it, and returns its Result JSON.
func resultBytes(t *testing.T, svc *Service, req Request) []byte {
	t.Helper()
	j, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	v := svc.Snapshot(j)
	if v.State != StateDone {
		t.Fatalf("%s: state %s, error %q", v.Name, v.State, firstLine(v.Error))
	}
	data, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestClusterWorkerPanicKeepsStack: a panic on a cluster worker lands in
// the quarantined job's error with its value and stack, as it does on a
// single node (TestQuarantineAfterMaxAttempts).
func TestClusterWorkerPanicKeepsStack(t *testing.T) {
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		panic(fmt.Sprintf("poison pill on attempt %d", attempt))
	}}
	svc := newTestService(t, Config{
		MaxAttempts: 2, RetryBaseDelay: time.Millisecond, Hooks: hooks, Workers: 1,
		LeaseTTL: 5 * time.Second, HeartbeatInterval: 100 * time.Millisecond,
		Cluster: &ClusterConfig{},
	}, true)
	j, err := svc.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	v := svc.Snapshot(j)
	if v.State != StateQuarantined {
		t.Fatalf("state = %s, want quarantined (%+v)", v.State, v)
	}
	if !strings.Contains(v.Error, "poison pill on attempt 2") || !strings.Contains(v.Error, "runtime/debug") {
		t.Fatalf("quarantine error must carry panic value and stack, got %q", v.Error)
	}
	if got := svc.Metrics().JobsPanicked.Load(); got != 2 {
		t.Fatalf("JobsPanicked = %d, want 2", got)
	}
}

// postCluster POSTs one JSON body to the coordinator's worker protocol.
func postCluster(t *testing.T, url, path string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestWorkerProtocolOffSingleNode: every service holds a coordinator, but
// only coordinator mode mounts the worker protocol. A client that could
// join a single node could pull its jobs and return forged verdicts into
// its result cache, so every route answers 404 there.
func TestWorkerProtocolOffSingleNode(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1}, true)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	for _, path := range []string{"join", "poll", "heartbeat", "complete", "leave"} {
		if status, raw := postCluster(t, srv.URL, "/cluster/v1/"+path, map[string]string{"id": "intruder", "worker_id": "intruder"}); status != http.StatusNotFound {
			t.Errorf("POST /cluster/v1/%s = %d %s, want 404", path, status, raw)
		}
	}
	if got := len(svc.coord.Workers()); got != 1 {
		t.Fatalf("registered workers = %d, want the 1 in-process worker", got)
	}
}

// TestClusterEmptyCompletionRejected: a completion carrying neither a
// result nor an error is a malformed request (400). The lease it named
// stays outstanding until it expires, and the job then re-dispatches to a
// healthy worker and completes.
func TestClusterEmptyCompletionRejected(t *testing.T) {
	svc := newTestService(t, Config{
		QueueSize: 8, MaxAttempts: 3, RetryBaseDelay: time.Millisecond, Workers: -1,
		LeaseTTL: time.Second, HeartbeatInterval: 100 * time.Millisecond,
		Cluster: &ClusterConfig{},
	}, true)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if status, raw := postCluster(t, srv.URL, "/cluster/v1/join", map[string]string{"id": "empty"}); status != http.StatusOK {
		t.Fatalf("join: %d %s", status, raw)
	}
	j, err := svc.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	status, raw := postCluster(t, srv.URL, "/cluster/v1/poll", map[string]any{"worker_id": "empty", "wait_ms": 5000})
	if status != http.StatusOK {
		t.Fatalf("poll: %d %s", status, raw)
	}
	var a struct {
		Task struct {
			JobID string `json:"job_id"`
		} `json:"task"`
		Token uint64 `json:"token"`
	}
	if err := json.Unmarshal(raw, &a); err != nil || a.Task.JobID != j.ID() {
		t.Fatalf("assignment %s (%v), want job %s", raw, err, j.ID())
	}
	status, raw = postCluster(t, srv.URL, "/cluster/v1/complete", map[string]any{
		"worker_id": "empty", "job_id": a.Task.JobID, "token": a.Token,
	})
	if status != http.StatusBadRequest {
		t.Fatalf("empty completion: %d %s, want 400", status, raw)
	}
	if v := svc.Snapshot(j); v.State != StateRunning {
		t.Fatalf("after rejected completion: %+v, want running under the live lease", v)
	}

	defer startWorkerNode(t, srv.URL, "healthy")()
	waitDone(t, j)
	v := svc.Snapshot(j)
	if v.State != StateDone || v.Result == nil || v.Attempts != 2 {
		t.Fatalf("job after lease expiry: %+v, want done on the second attempt", v)
	}
	if e := svc.Metrics().ClusterLeasesExpired.Load(); e != 1 {
		t.Fatalf("leases expired = %d, want 1", e)
	}
}
