package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"paramring/internal/dsl"
	"paramring/internal/verify"
)

// TestCacheRoutesGone: no role of lrserved accepts or serves a Result by
// cache key. A route that stored a posted Result would let any client
// plant a forged verdict for the next Submit of that spec, and a key such
// as ../escaped would write outside the cache directory. On a single
// node, a coordinator and a worker node, PUT and GET of /cluster/v1/cache/
// answer 404, nothing is written beside the cache directory, and the next
// Submit of the spec runs the engine.
func TestCacheRoutesGone(t *testing.T) {
	opts := RequestOptions{CrossValidateMaxK: 4}
	spec, err := dsl.ParseSpec(tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := spec.Protocol()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Check(proto, opts.EngineOptions(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Result(spec.Name)
	forged, err := json.Marshal(&Result{
		Protocol: spec.Name, Deadlock: "refuted", Livelock: "refuted", Summary: "forged",
	})
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(dsl.Format(spec), opts)
	quiet := log.New(io.Discard, "", 0)

	// Each role returns the handler under test and the service whose
	// Submit follows the forged writes.
	roles := []struct {
		name  string
		start func(t *testing.T, cacheDir string) (http.Handler, *Service)
	}{
		{"single-node", func(t *testing.T, cacheDir string) (http.Handler, *Service) {
			svc := newTestService(t, Config{Workers: 1, CacheDir: cacheDir}, true)
			return svc.Handler(), svc
		}},
		{"coordinator", func(t *testing.T, cacheDir string) (http.Handler, *Service) {
			svc := newTestService(t, Config{
				Workers: 1, CacheDir: cacheDir,
				LeaseTTL: 5 * time.Second, HeartbeatInterval: 100 * time.Millisecond,
				Cluster: &ClusterConfig{},
			}, true)
			return svc.Handler(), svc
		}},
		{"worker-node", func(t *testing.T, cacheDir string) (http.Handler, *Service) {
			// The coordinator has no in-process workers, so the Submit
			// below runs on this node.
			coord := newTestService(t, Config{
				Workers: -1, CacheDir: cacheDir,
				LeaseTTL: 5 * time.Second, HeartbeatInterval: 100 * time.Millisecond,
				Cluster: &ClusterConfig{},
			}, true)
			srv := httptest.NewServer(coord.Handler())
			t.Cleanup(srv.Close)
			node, err := NewWorkerNode(WorkerNodeConfig{Coordinator: srv.URL, ID: "w1", Log: quiet})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			exited := make(chan error, 1)
			go func() { exited <- node.Run(ctx) }()
			t.Cleanup(func() {
				cancel()
				if err := <-exited; err != nil {
					t.Errorf("worker node: %v", err)
				}
			})
			return node.Handler(), coord
		}},
	}
	for _, role := range roles {
		t.Run(role.name, func(t *testing.T) {
			root := t.TempDir()
			h, svc := role.start(t, filepath.Join(root, "cache"))

			for _, path := range []string{"/cluster/v1/cache/" + key, "/cluster/v1/cache/..%2Fescaped"} {
				for _, method := range []string{http.MethodPut, http.MethodGet} {
					var body io.Reader
					if method == http.MethodPut {
						body = bytes.NewReader(forged)
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
					if rec.Code != http.StatusNotFound {
						t.Errorf("%s %s = %d, want 404", method, path, rec.Code)
					}
				}
			}
			entries, err := os.ReadDir(root)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Name() != "cache" {
					t.Errorf("file written outside the cache dir: %s", e.Name())
				}
			}

			j, err := svc.Submit(Request{Spec: tinySpec, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, j)
			v := svc.Snapshot(j)
			if v.State != StateDone || v.Cached {
				t.Fatalf("submit after forged writes: state %s cached %t, want a fresh run", v.State, v.Cached)
			}
			if !reflect.DeepEqual(v.Result, want) {
				t.Fatalf("verdict diverges from verify.Check\n service: %+v\n direct:  %+v", v.Result, want)
			}
		})
	}
}
