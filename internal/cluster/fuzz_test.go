package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"paramring/internal/verify"
)

// clusterRoutes are the worker-protocol routes FuzzClusterHandlers posts
// to, indexed by its route byte.
var clusterRoutes = []string{"join", "poll", "heartbeat", "complete", "leave"}

// namesLease reports whether body, posted to route, may change the lease
// FuzzClusterHandlers holds: a well-formed heartbeat or completion that
// names its worker w1, job j1 and token 1. Decoding follows the handler's,
// so JSON's case-insensitive keys and repeated keys count as they do there.
func namesLease(route string, body []byte) bool {
	if len(body) > maxClusterBodyBytes {
		return false
	}
	switch route {
	case "heartbeat":
		var req heartbeatRequest
		return json.Unmarshal(body, &req) == nil && req.WorkerID == "w1" && req.JobID == "j1" && req.Token == 1
	case "complete":
		var req completeRequest
		return json.Unmarshal(body, &req) == nil && req.WorkerID == "w1" && req.JobID == "j1" && req.Token == 1 &&
			(req.Result != nil || wireError(req.Kind, req.Error) != nil)
	}
	return false
}

// FuzzClusterHandlers posts arbitrary bodies to the five /cluster/v1/*
// routes of a coordinator that holds one granted lease: job j1 on joined
// worker w1 under token 1, pulled and running. Whatever the body, the
// handler must answer 200, 204, 400, 404, 410 or 503, with a JSON body on
// 200, and must not panic; and it must leave the lease untouched — same
// grant, same token, same expiry, done not fired — unless the body named
// its worker, job and token (namesLease). pad prefixes the body with that
// many spaces, JSON whitespace, so that one small seed is an oversized
// body. The request context bounds poll's long wait. The seeds replay
// under -race in CI's cluster-chaos job.
func FuzzClusterHandlers(f *testing.F) {
	f.Add(uint8(0), uint32(0), []byte(`{"id": "w2", "slots": 2}`))
	f.Add(uint8(1), uint32(0), []byte(`{"worker_id": "w1", "wait_ms": 9223372036854775807}`))
	f.Add(uint8(2), uint32(0), []byte(`{"worker_id": "w1", "job_id": "j1", "token": 1}`))
	f.Add(uint8(3), uint32(0), []byte(`{"worker_id": "w1", "job_id": "j1", "token": 1, "error": "boom", "kind": "panic"}`))
	f.Add(uint8(4), uint32(0), []byte(`{"worker_id": "w1"}`))
	f.Fuzz(func(t *testing.T, route uint8, pad uint32, body []byte) {
		c := NewCoordinator(Config{LeaseTTL: time.Hour})
		defer c.Stop()
		if err := c.register(WorkerInfo{ID: "w1"}, true); err != nil {
			t.Fatal(err)
		}
		var fired atomic.Int64
		done := func(*verify.Result, string, error) { fired.Add(1) }
		if err := c.Dispatch(context.Background(), testTask("j1"), done); err != nil {
			t.Fatal(err)
		}
		if _, token, _, err := c.Next(context.Background(), "w1"); err != nil || token != 1 {
			t.Fatalf("pulling the lease: token %d, %v", token, err)
		}
		c.mu.Lock()
		held := c.leases["j1"]
		expiry := held.expiry
		c.mu.Unlock()

		name := clusterRoutes[int(route)%len(clusterRoutes)]
		full := append(bytes.Repeat([]byte(" "), int(pad%(maxClusterBodyBytes+2))), body...)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/cluster/v1/"+name, bytes.NewReader(full)).WithContext(ctx)
		rec := httptest.NewRecorder()
		newTestMux(c).ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusNoContent, http.StatusBadRequest, http.StatusNotFound, http.StatusGone, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST /cluster/v1/%s: status %d %s", name, rec.Code, rec.Body.Bytes())
		}
		if rec.Code == http.StatusOK && !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("POST /cluster/v1/%s: 200 with a body that is not JSON: %q", name, rec.Body.Bytes())
		}
		if namesLease(name, full) {
			return
		}
		c.mu.Lock()
		l := c.leases["j1"]
		touched := l != held || l.token != 1 || !l.expiry.Equal(expiry)
		c.mu.Unlock()
		if touched || fired.Load() != 0 {
			t.Fatalf("POST /cluster/v1/%s %q touched the lease without naming it (status %d)", name, body, rec.Code)
		}
	})
}
