package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// hitBody is the POST /v1/verify body e2ebench's hot-resubmit workload
// sends: the spec, default options and "wait": true.
func hitBody(tb testing.TB, spec string) []byte {
	tb.Helper()
	b, err := json.Marshal(struct {
		Spec    string         `json:"spec"`
		Options RequestOptions `json:"options"`
		Wait    bool           `json:"wait"`
	}{spec, RequestOptions{}, true})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// BenchmarkCacheHit measures what one POST /v1/verify answered from the
// result cache costs through Handler(), request and recorder included:
// "exact" resubmits byte-identical text (the spec cache's raw-text alias
// hits), "reformatted" prefixes a fresh comment line each time, so the
// spec is parsed and formatted before the canonical lookup hits. The
// reformatted bodies are built before the timer starts and rotate through
// more variants than the alias index holds per spec.
func BenchmarkCacheHit(b *testing.B) {
	src, err := os.ReadFile(filepath.Join(specsDir(b), "mis.gc"))
	if err != nil {
		b.Fatal(err)
	}
	svc, err := New(Config{Workers: 1, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		b.Fatal(err)
	}
	svc.Start()
	defer svc.Shutdown(context.Background())
	h := svc.Handler()
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(body)))
		return rec
	}
	exact := hitBody(b, string(src))
	if rec := post(exact); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"state": "done"`)) {
		b.Fatalf("warm-up: status %d, body %s", rec.Code, rec.Body.Bytes())
	}
	reformatted := make([][]byte, 256)
	for i := range reformatted {
		reformatted[i] = hitBody(b, fmt.Sprintf("# resubmission %d\n%s", i, src))
	}
	for _, tc := range []struct {
		name   string
		bodies [][]byte
	}{
		{"exact", [][]byte{exact}},
		{"reformatted", reformatted},
	} {
		b.Run(tc.name, func(b *testing.B) {
			if rec := post(tc.bodies[0]); !bytes.Contains(rec.Body.Bytes(), []byte(`"cached": true`)) {
				b.Fatalf("not a cache hit: status %d, body %s", rec.Code, rec.Body.Bytes())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := post(tc.bodies[i%len(tc.bodies)]); rec.Code != http.StatusOK {
					b.Fatalf("status %d, body %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}

// referenceWriteJSON is writeJSON as it was before encoders were pooled:
// a new indenting Encoder per answer. TestResponseBytesUnchanged holds the
// pooled one to its bytes.
func referenceWriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// referenceDecode is POST /v1/verify's decode as it was before decoders
// were pooled.
func referenceDecode(body []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// referenceCacheKey is cacheKey as it was before it was built in one
// buffer, at result version 1: the content addresses results.log files
// hold. A version bump changes every key on purpose and updates this
// reference with it.
func referenceCacheKey(canonicalSpec string, opts RequestOptions) string {
	o := opts.Normalize()
	h := sha256.New()
	h.Write([]byte(canonicalSpec))
	h.Write([]byte{0})
	fmt.Fprintf(h, "confirm=%d xval=%d fallback=%d tarcs=%d inv=%t v=1",
		o.ConfirmMaxK, o.CrossValidateMaxK, o.BoundedFallbackMaxK, o.MaxTArcs, o.Invariant)
	return hex.EncodeToString(h.Sum(nil))
}

// sameAnswer fails unless got and want carry the same status, content
// type and body bytes.
func sameAnswer(t *testing.T, what string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
		!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s: got status %d %q\n%s\nwant status %d %q\n%s", what,
			got.Code, got.Header().Get("Content-Type"), got.Body.Bytes(),
			want.Code, want.Header().Get("Content-Type"), want.Body.Bytes())
	}
}

// TestResponseBytesUnchanged: every answer the pooled encoder renders — a
// done, a cached, a failed and a quarantined job, a batch, the job list and
// an error — is byte for byte what referenceWriteJSON renders, and so is
// the answer to POST /v1/verify. Each is rendered twice, after the large
// list has been through the pool, so no state carries from one answer to
// the next.
func TestResponseBytesUnchanged(t *testing.T) {
	// Ids are handed out in submission order: the fourth job is poisoned.
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		if id == "job-000004" {
			panic("poison pill")
		}
		return nil
	}}
	svc := newTestService(t, Config{
		Workers: 1, MaxAttempts: 1, Hooks: hooks,
		MemoryBudgetBytes: 4, DegradeOverBudget: true, // cross-validation to K=6 fails: 64 states > 32
	}, true)
	submit := func(req Request) *Job {
		t.Helper()
		j, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		return j
	}
	done := submit(Request{Spec: tinySpec})
	cached := submit(Request{Spec: tinySpecVariant})
	failed := submit(Request{Spec: tinySpec, Options: RequestOptions{CrossValidateMaxK: 6}})
	quarantined := submit(Request{Spec: numberedSpec(1)})
	for j, want := range map[*Job]JobState{done: StateDone, cached: StateDone, failed: StateFailed, quarantined: StateQuarantined} {
		if v := svc.Snapshot(j); v.State != want || v.Cached != (j == cached) {
			t.Fatalf("job %s: state %s, cached %v; want %s", j.ID(), v.State, v.Cached, want)
		}
	}
	b, err := svc.SubmitBatch(BatchRequest{Specs: []string{tinySpec, "protocol broken\n", numberedSpec(2)}})
	if err != nil {
		t.Fatal(err)
	}
	b.wait(nil)

	h := svc.Handler()
	for round := 0; round < 2; round++ {
		want := httptest.NewRecorder()
		referenceWriteJSON(want, http.StatusOK, map[string]any{"jobs": svc.Jobs("")})
		sameAnswer(t, "GET /v1/jobs", get(h, "/v1/jobs"), want)
		for _, j := range []*Job{done, cached, failed, quarantined} {
			want := httptest.NewRecorder()
			referenceWriteJSON(want, http.StatusOK, svc.Snapshot(j))
			sameAnswer(t, "GET /v1/jobs/"+j.ID(), get(h, "/v1/jobs/"+j.ID()), want)
		}
		want = httptest.NewRecorder()
		referenceWriteJSON(want, http.StatusOK, svc.BatchSnapshot(b))
		sameAnswer(t, "GET /v1/verify/batch/"+b.id, get(h, "/v1/verify/batch/"+b.id), want)
		want = httptest.NewRecorder()
		referenceWriteJSON(want, http.StatusNotFound, map[string]string{"error": "unknown job id"})
		sameAnswer(t, "GET /v1/jobs/job-999999", get(h, "/v1/jobs/job-999999"), want)

		got := httptest.NewRecorder()
		h.ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(hitBody(t, tinySpec))))
		var view JobView
		if err := json.Unmarshal(got.Body.Bytes(), &view); err != nil {
			t.Fatal(err)
		}
		hit, ok := svc.Job(view.ID)
		if !ok {
			t.Fatalf("POST /v1/verify answered unknown job %q", view.ID)
		}
		want = httptest.NewRecorder()
		referenceWriteJSON(want, http.StatusOK, svc.Snapshot(hit))
		sameAnswer(t, "POST /v1/verify", got, want)
		got = httptest.NewRecorder()
		h.ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader([]byte(`{"spec": 1}`))))
		_, decodeErr := referenceDecode([]byte(`{"spec": 1}`))
		want = httptest.NewRecorder()
		referenceWriteJSON(want, http.StatusBadRequest, map[string]string{"error": decodeErr.Error()})
		sameAnswer(t, "POST /v1/verify with a wrong field type", got, want)
	}
}

// TestCacheKeyUnchanged: cacheKey spells the same content address as
// referenceCacheKey for every option that reaches it, so the verdicts in an
// existing results.log stay addressable.
func TestCacheKeyUnchanged(t *testing.T) {
	long := strings.Repeat(tinySpec, 40) // past the stack buffer
	for _, spec := range []string{"", tinySpec, long} {
		for _, opts := range []RequestOptions{
			{},
			{ConfirmMaxK: 3, CrossValidateMaxK: 6, BoundedFallbackMaxK: 5, MaxTArcs: 300, Invariant: true},
			{ConfirmMaxK: -1, CrossValidateMaxK: math.MaxInt, MaxTArcs: math.MinInt, Workers: 8},
		} {
			if got, want := cacheKey(spec, opts), referenceCacheKey(spec, opts); got != want {
				t.Fatalf("cacheKey(%d-byte spec, %+v) = %s, want %s", len(spec), opts, got, want)
			}
		}
	}
}

// FuzzVerifyHandler posts arbitrary bytes to POST /v1/verify. The pooled
// decode must accept or reject every body exactly as referenceDecode does,
// with the same Request and the same error, also when its decoder has
// already decoded the previous body; and whatever the body, the handler
// must answer 200, 202, 400 or 503 with a JSON body. The one-second
// deadlines bound a waited job, and the small memory budget refuses an
// oversized cross-validation instead of allocating it. The seeds replay
// under -race in CI's chaos job.
func FuzzVerifyHandler(f *testing.F) {
	spec := "protocol p1\ndomain 2\nwindow 0 1\nlegit x[0] == x[1]\naction f: x[0] != x[1] -> x[0] := x[1]\n"
	valid := fmt.Sprintf(`{"spec": %q, "wait": true}`, spec)
	for _, seed := range []string{
		valid,
		fmt.Sprintf(`{"spec": %q, "bogus": 1}`, spec),
		fmt.Sprintf(`{"spec": %q, "options": {"cross_validate_max_k": 3, "bogus": 1}}`, spec),
		valid + ` {"spec": "trailing"} garbage`,
		`{"spec": 42}`,
		fmt.Sprintf(`{"spec": %q, "timeout_ms": -5}`, spec),
		fmt.Sprintf(`{"spec": %q, "timeout_ms": 9223372036854775807, "wait": true}`, spec),
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := referenceDecode(body)
		for i := 0; i < 2; i++ {
			got, err := decodeRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(body)))
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("decode %d: %+v, %v; reference: %+v, %v", i, got, err, want, wantErr)
			}
		}

		svc, err := New(Config{
			Workers:           1,
			DefaultTimeout:    time.Second,
			MaxTimeout:        time.Second,
			MemoryBudgetBytes: 1 << 20,
			Log:               log.New(io.Discard, "", 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		svc.Start()
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d, body %s", rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d with a body that is not JSON: %q", rec.Code, rec.Body.Bytes())
		}
		if wantErr != nil && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d for a body the reference rejects: %v", rec.Code, wantErr)
		}

		stopped := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			stopped <- svc.Shutdown(ctx)
		}()
		select {
		case <-stopped:
		case <-time.After(30 * time.Second):
			t.Fatal("Shutdown did not return")
		}
	})
}
