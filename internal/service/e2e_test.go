package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"paramring/internal/dsl"
	"paramring/internal/verify"
)

// specsDir locates the repository's specs/ directory from the test binary.
func specsDir(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		candidate := filepath.Join(dir, "specs")
		if st, err := os.Stat(candidate); err == nil && st.IsDir() {
			return candidate
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Skip("specs directory not found")
		}
		dir = parent
	}
}

func loadSpecs(t *testing.T) map[string]string {
	t.Helper()
	dir := specsDir(t)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := make(map[string]string)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".gc") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		specs[e.Name()] = string(src)
	}
	if len(specs) < 5 {
		t.Fatalf("expected at least 5 shipped specs, found %d", len(specs))
	}
	return specs
}

func postVerify(t *testing.T, url string, req Request) (int, JobView) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decoding /v1/verify response: %v", err)
	}
	return resp.StatusCode, view
}

// metricValue scrapes one sample from the /metrics text exposition.
func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing metric %s from %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in /metrics output", name)
	return 0
}

// e2eOptions makes cross-validation part of every e2e run so that
// Result.ExplicitStates is non-zero and the "cache hits explore no new
// states" assertion has teeth.
var e2eOptions = RequestOptions{CrossValidateMaxK: 4}

// TestE2EAllSpecsVerdictParityAndCaching is the acceptance scenario:
// every shipped spec is submitted concurrently over HTTP, verdicts must
// match a direct verify.Check call, and a second round must be served
// entirely from the cache — hit counter up, states-explored flat.
func TestE2EAllSpecsVerdictParityAndCaching(t *testing.T) {
	specs := loadSpecs(t)
	svc := newTestService(t, Config{Workers: 4, DefaultTimeout: 5 * time.Minute}, true)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	submitAll := func() map[string]JobView {
		var (
			mu    sync.Mutex
			wg    sync.WaitGroup
			views = make(map[string]JobView)
		)
		for name, src := range specs {
			wg.Add(1)
			go func(name, src string) {
				defer wg.Done()
				status, view := postVerify(t, ts.URL, Request{Spec: src, Options: e2eOptions, Wait: true})
				if status != http.StatusOK {
					t.Errorf("%s: status %d (view %+v)", name, status, view)
				}
				mu.Lock()
				views[name] = view
				mu.Unlock()
			}(name, src)
		}
		wg.Wait()
		return views
	}

	round1 := submitAll()
	for name, view := range round1 {
		if view.State != StateDone {
			t.Fatalf("%s: state %s, error %q", name, view.State, view.Error)
		}
		if view.Cached {
			t.Fatalf("%s: first round must not be a cache hit", name)
		}
		// Verdict parity with the engine called directly.
		spec, err := dsl.ParseSpec(specs[name])
		if err != nil {
			t.Fatal(err)
		}
		proto, err := spec.Protocol()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := verify.Check(proto, e2eOptions.EngineOptions(1, 0))
		if err != nil {
			t.Fatalf("%s: direct verify.Check: %v", name, err)
		}
		want := rep.Result(spec.Name)
		if !reflect.DeepEqual(view.Result, want) {
			t.Errorf("%s: service verdict diverges from direct verify.Check\n service: %+v\n direct:  %+v",
				name, view.Result, want)
		}
	}

	hits1 := metricValue(t, ts.URL, "lrserved_cache_hits_total")
	states1 := metricValue(t, ts.URL, "lrserved_states_explored_total")
	if hits1 != 0 {
		t.Fatalf("cache hits after round 1 = %v, want 0", hits1)
	}
	if states1 == 0 {
		t.Fatal("states explored after round 1 = 0; cross-validation should have run the explicit engine")
	}

	round2 := submitAll()
	for name, view := range round2 {
		if view.State != StateDone || !view.Cached {
			t.Fatalf("%s: second round not served from cache: %+v", name, view)
		}
		if !reflect.DeepEqual(view.Result, round1[name].Result) {
			t.Errorf("%s: cached result differs from round 1", name)
		}
	}
	hits2 := metricValue(t, ts.URL, "lrserved_cache_hits_total")
	states2 := metricValue(t, ts.URL, "lrserved_states_explored_total")
	if want := hits1 + float64(len(specs)); hits2 != want {
		t.Fatalf("cache hits after round 2 = %v, want %v", hits2, want)
	}
	if states2 != states1 {
		t.Fatalf("cache hits explored new states: %v -> %v", states1, states2)
	}
}

// TestE2EDeadline submits a deliberately heavy job (deep cross-validation)
// with a 1ms deadline: it must come back as a timeout error, not hang.
func TestE2EDeadline(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(specsDir(t), "coloring3.gc"))
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Config{Workers: 1}, true)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	status, view := postVerify(t, ts.URL, Request{
		Spec:      string(src),
		Options:   RequestOptions{CrossValidateMaxK: 14},
		Wait:      true,
		TimeoutMS: 1,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 (terminal state)", status)
	}
	if view.State != StateFailed {
		t.Fatalf("state %s, want failed (view %+v)", view.State, view)
	}
	if !strings.Contains(view.Error, "deadline exceeded") {
		t.Fatalf("error %q does not mention the deadline", view.Error)
	}
	if got := metricValue(t, ts.URL, "lrserved_jobs_timeout_total"); got != 1 {
		t.Fatalf("lrserved_jobs_timeout_total = %v, want 1", got)
	}
}

// TestE2EAsyncPollAndErrors covers the non-blocking submission path and
// the HTTP error mapping.
func TestE2EAsyncPollAndErrors(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2}, true)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	status, view := postVerify(t, ts.URL, Request{Spec: tinySpec})
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("async submit status %d", status)
	}
	if view.ID == "" {
		t.Fatalf("async submit returned no job id: %+v", view)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		var polled JobView
		if err := json.NewDecoder(resp.Body).Decode(&polled); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if polled.State == StateDone {
			if polled.Result == nil || polled.FinishedAt == "" {
				t.Fatalf("done view incomplete: %+v", polled)
			}
			break
		}
		if polled.State == StateFailed {
			t.Fatalf("job failed: %q", polled.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", view.ID, polled.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Unknown job id -> 404.
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", resp.StatusCode)
	}

	// Malformed JSON -> 400.
	resp, err = http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status %d, want 400", resp.StatusCode)
	}

	// Malformed spec -> 400 with a one-line error payload.
	status, _ = postVerify(t, ts.URL, Request{Spec: "not a spec"})
	if status != http.StatusBadRequest {
		t.Fatalf("malformed spec status %d, want 400", status)
	}

	// Health endpoint.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Stats.Workers != 2 {
		t.Fatalf("healthz payload: %+v", health)
	}

	// Metrics exposes the static gauges.
	if got := metricValue(t, ts.URL, "lrserved_workers"); got != 2 {
		t.Fatalf("lrserved_workers = %v, want 2", got)
	}
}

// TestE2EMetricsRendering pins the exposition format: HELP/TYPE headers,
// sorted extra gauges, and the phase histogram, on a single node, in
// coordinator mode, and with a journal, whose one job costs one group
// commit for its two records.
func TestE2EMetricsRendering(t *testing.T) {
	for _, cfg := range []Config{{Workers: 1}, {Workers: 1, Cluster: &ClusterConfig{}}, {Workers: 1, CacheDir: t.TempDir()}} {
		svc := newTestService(t, cfg, true)
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()

		if _, view := postVerify(t, ts.URL, Request{Spec: tinySpec, Wait: true}); view.State != StateDone {
			t.Fatalf("warm-up job: %+v", view)
		}

		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		body := buf.String()
		for _, want := range []string{
			"# TYPE lrserved_jobs_submitted_total counter",
			"lrserved_jobs_submitted_total 1",
			"lrserved_jobs_done_total 1",
			"# TYPE lrserved_phase_duration_seconds histogram",
			`lrserved_phase_duration_seconds_bucket{phase="verify",le="+Inf"} 1`,
			"lrserved_queue_capacity",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("coordinator mode %t: /metrics missing %q\n---\n%s", cfg.Cluster != nil, want, body)
			}
		}
		syncs, records := 0, 0
		if cfg.CacheDir != "" {
			syncs, records = 1, 2
		}
		for _, want := range []string{
			"# TYPE lrserved_journal_syncs_total counter",
			fmt.Sprintf("\nlrserved_journal_syncs_total %d\n", syncs),
			"# TYPE lrserved_journal_records_total counter",
			fmt.Sprintf("\nlrserved_journal_records_total %d\n", records),
			fmt.Sprintf(`lrserved_phase_duration_seconds_count{phase="journal"} %d`, syncs),
		} {
			if !strings.Contains(body, want) {
				t.Errorf("cache dir %t: /metrics missing %q\n---\n%s", cfg.CacheDir != "", want, body)
			}
		}
	}
}
