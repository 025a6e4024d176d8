package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"

	"paramring/internal/cluster"
)

// maxRequestBytes bounds a POST body (specs are a few hundred bytes; this
// is pure abuse protection).
const maxRequestBytes = 1 << 20

// Handler returns the service's HTTP API:
//
//	POST /v1/verify            submit a spec; {"wait": true} blocks until done
//	POST /v1/verify/batch      submit many specs as one batch
//	GET  /v1/verify/batch/{id} poll a batch's aggregate progress
//	GET  /v1/jobs/{id}         poll a job
//	GET  /v1/jobs              list retained jobs; ?state=quarantined filters
//	GET  /healthz              liveness + occupancy
//	GET  /metrics              Prometheus text exposition
//
// In coordinator mode (Config.Cluster set) the worker protocol (POST
// /cluster/v1/join|poll|heartbeat|complete|leave) is mounted too. Without
// it the routes answer 404: a client that could join could return forged
// verdicts into the result cache.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/verify/batch", s.handleVerifyBatch)
	mux.HandleFunc("GET /v1/verify/batch/{id}", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Cluster != nil {
		cluster.Mount(mux, s.coord)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	jsonWriters.Get().(*jsonWriter).write(w, status, v)
}

// maxPooledBytes bounds the bodies whose encoder or decoder buffers are
// kept for reuse; a job view, an error or a request body is far smaller.
const maxPooledBytes = 64 << 10

// jsonWriter is an indenting json.Encoder that writes to whichever writer
// w holds. The Encoder keeps its indent buffer between calls, so a pooled
// one renders an answer without allocating a new one each time; view
// holds a job view while it is encoded, so the view is not copied to the
// heap either.
type jsonWriter struct {
	w    io.Writer
	n    int // bytes of the last write
	enc  *json.Encoder
	view JobView
}

func (jw *jsonWriter) Write(p []byte) (int, error) {
	jw.n = len(p)
	return jw.w.Write(p)
}

var jsonWriters = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(jw)
	jw.enc.SetIndent("", "  ")
	return jw
}}

// write answers with v as indented JSON and returns jw to the pool.
func (jw *jsonWriter) write(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	jw.w = w
	err := jw.enc.Encode(v)
	jw.w, jw.view = nil, JobView{}
	// A failed write stays with the encoder, and a large answer would pin
	// its indent buffer: neither goes back to the pool.
	if err == nil && jw.n <= maxPooledBytes {
		jsonWriters.Put(jw)
	}
}

// writeJob answers with a snapshot of j: 200 once j is terminal, status
// pending while it is queued or running.
func (s *Service) writeJob(w http.ResponseWriter, j *Job, pending int) {
	jw := jsonWriters.Get().(*jsonWriter)
	jw.view = s.Snapshot(j)
	status := pending
	if st := jw.view.State; st == StateDone || st == StateFailed || st == StateQuarantined {
		status = http.StatusOK
	}
	jw.write(w, status, &jw.view)
}

// requestDecoder is a json.Decoder with DisallowUnknownFields that reads
// whichever body it holds into req. The Decoder keeps its read buffer
// between requests, so a pooled one decodes a body without growing a new
// buffer each time.
type requestDecoder struct {
	body io.Reader
	read int64 // bytes read from body
	dec  *json.Decoder
	req  Request
}

func (d *requestDecoder) Read(p []byte) (int, error) {
	n, err := d.body.Read(p)
	d.read += int64(n)
	return n, err
}

var requestDecoders = sync.Pool{New: func() any {
	d := &requestDecoder{}
	d.dec = json.NewDecoder(d)
	d.dec.DisallowUnknownFields()
	return d
}}

// decodeRequest decodes the first JSON value of r's body as
// json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)) with
// DisallowUnknownFields would: the same Request, the same errors, the
// same bytes read, and anything after the value ignored.
func decodeRequest(w http.ResponseWriter, r *http.Request) (Request, error) {
	d := requestDecoders.Get().(*requestDecoder)
	d.body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	d.read = 0
	start := d.dec.InputOffset()
	err := d.dec.Decode(&d.req)
	req := d.req
	d.body, d.req = nil, Request{}
	// A decoder is reused only when it ended clean: an error reading or
	// scanning stays with it, bytes it read past the value would be taken
	// for the next body's, and a large body would pin its buffer. A reused
	// buffer starts empty and grows as a new one would, so it reaches
	// past maxRequestBytes exactly when a new one does.
	if err == nil && d.dec.InputOffset()-start == d.read && d.read <= maxPooledBytes {
		requestDecoders.Put(d)
	}
	return req, err
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// backpressureRetryAfter is the Retry-After value (seconds) sent with 503
// backpressure responses: queue slots and memory budget free up on the
// next job completion, so "shortly" is the honest hint.
const backpressureRetryAfter = "1"

func (s *Service) handleVerify(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.Submit(req)
	switch {
	case err == nil:
	case errors.Is(err, ErrBadSpec):
		writeError(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverBudget):
		// Backpressure, not client error: 503 + Retry-After tells a
		// well-behaved client to back off and resubmit.
		w.Header().Set("Retry-After", backpressureRetryAfter)
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrShutdown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if req.Wait {
		// The job deadline bounds this (jobs always reach a terminal
		// state); a vanished client just stops watching. A cache hit is
		// done already, and the request context makes its done channel on
		// first use, so it is asked for only when there is a wait.
		select {
		case <-j.Done():
		default:
			select {
			case <-j.Done():
			case <-r.Context().Done():
			}
		}
	}
	s.writeJob(w, j, http.StatusAccepted)
}

// maxBatchRequestBytes bounds a batch POST body: maxBatchSpecs specs of
// ordinary size fit comfortably.
const maxBatchRequestBytes = maxBatchSpecs * maxRequestBytes / 16

func (s *Service) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	b, err := s.SubmitBatch(req)
	switch {
	case err == nil:
	case errors.Is(err, ErrBatchEmpty), errors.Is(err, ErrBatchTooLarge):
		writeError(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, ErrShutdown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if req.Wait {
		// Per-job deadlines bound this; a vanished client stops watching.
		b.wait(r.Context().Done())
	}
	view := s.BatchSnapshot(b)
	status := http.StatusAccepted
	if view.Pending == 0 {
		status = http.StatusOK
	}
	writeJSON(w, status, view)
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	b, ok := s.Batch(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown batch id"))
		return
	}
	writeJSON(w, http.StatusOK, s.BatchSnapshot(b))
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job id"))
		return
	}
	s.writeJob(w, j, http.StatusOK)
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	state := JobState(r.URL.Query().Get("state"))
	switch state {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateQuarantined:
	default:
		writeError(w, http.StatusBadRequest, errors.New("unknown state filter"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs(state)})
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"stats":  s.Stats(),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	st := s.Stats()
	extras := map[string]float64{
		"lrserved_queue_capacity":     float64(st.QueueCap),
		"lrserved_cache_entries":      float64(st.CacheEntries),
		"lrserved_spec_cache_entries": float64(st.SpecCache.Entries),
		"lrserved_workers":            float64(st.Workers),
		"lrserved_jobs_quarantined":   float64(st.Quarantined),
		"lrserved_mem_budget_bytes":   float64(st.MemBudgetBytes),
		"lrserved_mem_in_use_bytes":   float64(st.MemInUseBytes),
		"lrserved_cluster_workers":    float64(st.ClusterWorkers),
		"lrserved_cluster_leases":     float64(st.ClusterLeases),
	}
	s.metrics.WriteTo(w, extras)
}
