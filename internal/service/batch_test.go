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
	"testing"
	"time"

	"paramring/internal/protogen"
)

// sweepSources generates a one-family sweep's spec texts for batch tests:
// same-shape siblings, so the service's per-family memo sharing has
// something to share.
func sweepSources(t *testing.T, variants int) []string {
	t.Helper()
	sw := &protogen.Sweep{
		Seed:     5,
		Families: []protogen.SweepFamily{{Name: "b", Domain: 3, Lo: -1, Hi: 0, Variants: variants}},
	}
	specs, err := sw.Specs()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.Source
	}
	return out
}

func TestSubmitBatchRunsAllSpecs(t *testing.T) {
	svc := newTestService(t, Config{Workers: 4}, true)
	specs := sweepSources(t, 15)
	b, err := svc.SubmitBatch(BatchRequest{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	b.wait(nil)
	view := svc.BatchSnapshot(b)
	if view.Total != len(specs) || view.Pending != 0 || view.Rejected != 0 {
		t.Fatalf("batch view: %+v", view)
	}
	if view.Done != len(specs) {
		t.Fatalf("done = %d of %d: %+v", view.Done, len(specs), view)
	}
	for i, item := range view.Items {
		if item.Index != i || item.JobID == "" || item.Result == nil {
			t.Fatalf("item %d: %+v", i, item)
		}
	}
}

func TestSubmitBatchPartialRejection(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2}, true)
	// Pre-warm the result cache so the batch's variant spec (same canonical
	// form) resolves as a cache hit.
	warm, err := svc.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, warm)

	b, err := svc.SubmitBatch(BatchRequest{Specs: []string{tinySpec, "not a spec", tinySpecVariant}})
	if err != nil {
		t.Fatal(err)
	}
	b.wait(nil)
	view := svc.BatchSnapshot(b)
	if view.Rejected != 1 || view.Done != 2 {
		t.Fatalf("view: %+v", view)
	}
	if view.Items[1].JobID != "" || view.Items[1].Error == "" {
		t.Fatalf("rejected item: %+v", view.Items[1])
	}
	if !view.Items[0].Cached || !view.Items[2].Cached {
		t.Fatalf("warmed specs not served from cache: %+v / %+v", view.Items[0], view.Items[2])
	}
}

func TestSubmitBatchLimits(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1}, true)
	if _, err := svc.SubmitBatch(BatchRequest{}); err != ErrBatchEmpty {
		t.Fatalf("empty batch error = %v", err)
	}
	specs := make([]string, maxBatchSpecs+1)
	for i := range specs {
		specs[i] = tinySpec
	}
	if _, err := svc.SubmitBatch(BatchRequest{Specs: specs}); err != ErrBatchTooLarge {
		t.Fatalf("oversized batch error = %v", err)
	}
}

// The HTTP surface: POST a batch with wait, poll it by id, and confirm the
// aggregate counts match the per-spec results.
func TestHTTPVerifyBatch(t *testing.T) {
	svc := newTestService(t, Config{Workers: 4}, true)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	specs := sweepSources(t, 8)
	body, err := json.Marshal(BatchRequest{Specs: specs, Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/verify/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 for a waited batch", resp.StatusCode)
	}
	var view BatchView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Done != len(specs) || view.Pending != 0 {
		t.Fatalf("batch response: %+v", view)
	}

	// Poll by id.
	resp2, err := http.Get(fmt.Sprintf("%s/v1/verify/batch/%s", srv.URL, view.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("poll status = %d", resp2.StatusCode)
	}
	var polled BatchView
	if err := json.NewDecoder(resp2.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	if polled.ID != view.ID || polled.Done != view.Done {
		t.Fatalf("polled view diverged: %+v vs %+v", polled, view)
	}

	// Unknown id is a 404; an empty batch is a 400.
	resp3, err := http.Get(srv.URL + "/v1/verify/batch/batch-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown batch status = %d, want 404", resp3.StatusCode)
	}
	resp4, err := http.Post(srv.URL+"/v1/verify/batch", "application/json", bytes.NewReader([]byte(`{"specs":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d, want 400", resp4.StatusCode)
	}
}

// Batch memo sharing must never change what a lone submission concludes:
// the batch results are byte-identical to individually submitted specs on
// a fresh service.
func TestBatchResultsMatchIndividualSubmissions(t *testing.T) {
	specs := sweepSources(t, 10)

	batchSvc := newTestService(t, Config{Workers: 4}, true)
	b, err := batchSvc.SubmitBatch(BatchRequest{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	b.wait(nil)
	batchView := batchSvc.BatchSnapshot(b)

	soloSvc := newTestService(t, Config{Workers: 1}, true)
	for i, spec := range specs {
		j, err := soloSvc.Submit(Request{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		solo := soloSvc.Snapshot(j)
		got, want := batchView.Items[i].Result, solo.Result
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("spec %d: batch result differs from solo submission:\nbatch: %s\nsolo:  %s", i, gb, wb)
		}
	}
}

// FuzzVerifyBatchHandler posts arbitrary bytes to POST /v1/verify/batch.
// Whatever the body, the handler must answer 200, 202, 400 or 503 with a
// JSON body; an accepted batch holds one item per spec, at most
// maxBatchSpecs, each either rejected with an error and no job or carrying
// a job; and the service must still shut down. The one-second deadlines
// bound a waited batch, and the small memory budget refuses an oversized
// cross-validation per item instead of allocating it. The committed seeds
// (testdata/fuzz/FuzzVerifyBatchHandler) replay under -race in CI's chaos
// job.
func FuzzVerifyBatchHandler(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
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
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/verify/batch", bytes.NewReader(body)))

		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d, body %s", rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d with a body that is not JSON: %q", rec.Code, rec.Body.Bytes())
		}
		if rec.Code == http.StatusOK || rec.Code == http.StatusAccepted {
			var view BatchView
			if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
				t.Fatalf("status %d: %v", rec.Code, err)
			}
			if view.Total != len(view.Items) || view.Total < 1 || view.Total > maxBatchSpecs {
				t.Fatalf("total %d with %d items (limit %d)", view.Total, len(view.Items), maxBatchSpecs)
			}
			if (view.Pending == 0) != (rec.Code == http.StatusOK) {
				t.Fatalf("status %d with %d pending jobs", rec.Code, view.Pending)
			}
			for i, it := range view.Items {
				switch {
				case it.Index != i:
					t.Fatalf("item %d has index %d", i, it.Index)
				case it.JobID == "" && (it.Error == "" || it.State != "" || it.Result != nil):
					t.Fatalf("item %d has no job and is not a rejection: %+v", i, it)
				case it.JobID != "" && it.Error != "" && it.State != StateFailed && it.State != StateQuarantined:
					// An accepted job carries an error only once it failed,
					// for example past its deadline.
					t.Fatalf("item %d has job %s in state %q and error %q", i, it.JobID, it.State, it.Error)
				}
			}
		}

		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			done <- svc.Shutdown(ctx)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("Shutdown did not return")
		}
	})
}

// TestBatchesBoundedByItems: once the retained batches hold more than
// maxRetainedJobs items, the oldest batch is forgotten (404) and the newest
// still renders.
func TestBatchesBoundedByItems(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1}, true)
	j, err := svc.Submit(Request{Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	specs := make([]string, maxBatchSpecs)
	for i := range specs {
		specs[i] = tinySpec
	}
	var ids []string
	for items := 0; items <= maxRetainedJobs; items += len(specs) {
		b, err := svc.SubmitBatch(BatchRequest{Specs: specs})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, b.id)
	}
	h := svc.Handler()
	if rec := get(h, "/v1/verify/batch/"+ids[0]); rec.Code != http.StatusNotFound {
		t.Fatalf("oldest of %d batches: status %d, want 404", len(ids), rec.Code)
	}
	rec := get(h, "/v1/verify/batch/"+ids[len(ids)-1])
	var view BatchView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("newest batch: status %d, %v", rec.Code, err)
	}
	if view.Total != len(specs) || view.Done != len(specs) {
		t.Fatalf("newest batch renders %d of %d done", view.Done, view.Total)
	}
}
