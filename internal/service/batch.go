package service

import (
	"errors"
	"fmt"
	"sync"
)

// Batch limits: abuse protection on the HTTP surface, mirroring
// maxRequestBytes in spirit.
const (
	// maxBatchSpecs bounds the specs in one batch submission.
	maxBatchSpecs = 256
	// maxRetainedBatches bounds the batch index; past it, or once the
	// retained batches hold more than maxRetainedJobs items, the oldest
	// batches are forgotten (their jobs live on under the usual job
	// retention). A batch keeps its jobs and their results alive, so the
	// item bound keeps batches from pinning more jobs than the job index
	// retains. The newest batch is always kept.
	maxRetainedBatches = 256
)

// ErrBatchEmpty / ErrBatchTooLarge reject malformed batch submissions.
var (
	ErrBatchEmpty    = errors.New("batch has no specs")
	ErrBatchTooLarge = fmt.Errorf("batch exceeds %d specs", maxBatchSpecs)
)

// BatchRequest submits many specs under one option set. Every spec
// becomes an ordinary job — same placement, cache, journal and quarantine
// behavior as a single POST /v1/verify — so re-posting a batch runs only
// the specs whose canonical text or options changed; the rest are result
// cache hits. Same-family specs share nothing else: each job is verified
// on its own.
type BatchRequest struct {
	Specs   []string       `json:"specs"`
	Options RequestOptions `json:"options"`
	// Wait, on the HTTP surface, blocks the POST until every accepted job
	// reaches a terminal state.
	Wait bool `json:"wait,omitempty"`
	// TimeoutMS applies per job, as in Request.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BatchItem is one spec's slot in a batch view.
type BatchItem struct {
	// Index is the spec's position in the submitted array.
	Index int `json:"index"`
	// JobID is empty when the submission itself was rejected (parse error,
	// backpressure); Error then carries the reason.
	JobID string   `json:"job_id,omitempty"`
	State JobState `json:"state,omitempty"`
	// Cached, Error, Result mirror the job's JobView fields.
	Cached bool    `json:"cached,omitempty"`
	Error  string  `json:"error,omitempty"`
	Result *Result `json:"result,omitempty"`
}

// BatchView is the aggregate progress of a batch at one instant, computed
// from the live job states on every read.
type BatchView struct {
	ID    string `json:"id"`
	Total int    `json:"total"`
	// Rejected counts specs whose submission failed outright (they have no
	// job). Done/Failed/Quarantined/Pending partition the accepted jobs.
	Rejected    int         `json:"rejected"`
	Done        int         `json:"done"`
	Failed      int         `json:"failed"`
	Quarantined int         `json:"quarantined"`
	Pending     int         `json:"pending"`
	Items       []BatchItem `json:"items"`
}

// batch is the retained record of one batch submission. Batches are an
// in-memory index over jobs and are not journaled: after a restart the
// batch id is gone but every accepted job replays individually through the
// journal, so no work is lost — only the grouping.
type batch struct {
	id   string
	jobs []*Job   // index-aligned with the submitted specs; nil = rejected
	errs []string // per-index submit error ("" = accepted)
}

// batchState is the service-level batch index (lazily initialized).
type batchState struct {
	mu     sync.Mutex
	nextID uint64
	byID   map[string]*batch
	order  []string
	items  int // summed len(jobs) of the retained batches
}

func (bs *batchState) put(b *batch) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.byID == nil {
		bs.byID = map[string]*batch{}
	}
	bs.byID[b.id] = b
	bs.order = append(bs.order, b.id)
	bs.items += len(b.jobs)
	for len(bs.order) > 1 && (len(bs.order) > maxRetainedBatches || bs.items > maxRetainedJobs) {
		bs.items -= len(bs.byID[bs.order[0]].jobs)
		delete(bs.byID, bs.order[0])
		bs.order = bs.order[1:]
	}
}

func (bs *batchState) get(id string) (*batch, bool) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b, ok := bs.byID[id]
	return b, ok
}

func (bs *batchState) newID() string {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	bs.nextID++
	return fmt.Sprintf("batch-%06d", bs.nextID)
}

// SubmitBatch submits every spec as an ordinary job, journaling them all
// with one fsync, and returns the batch handle. Individual rejections
// (bad spec, queue full) do not abort the batch: the failed slot carries
// its error and the rest proceed. Only a closed service rejects the batch
// as a whole.
func (s *Service) SubmitBatch(req BatchRequest) (*batch, error) {
	if len(req.Specs) == 0 {
		return nil, ErrBatchEmpty
	}
	if len(req.Specs) > maxBatchSpecs {
		return nil, ErrBatchTooLarge
	}
	b := &batch{id: s.batches.newID(), errs: make([]string, len(req.Specs))}
	reqs := make([]Request, len(req.Specs))
	for i, spec := range req.Specs {
		reqs[i] = Request{Spec: spec, Options: req.Options, TimeoutMS: req.TimeoutMS}
	}
	var errs []error
	b.jobs, errs = s.submitMany(reqs)
	for i, err := range errs {
		if errors.Is(err, ErrShutdown) {
			return nil, err
		}
		if err != nil {
			b.errs[i] = err.Error()
		}
	}
	s.batches.put(b)
	return b, nil
}

// Batch returns the retained batch by id.
func (s *Service) Batch(id string) (*batch, bool) {
	return s.batches.get(id)
}

// BatchSnapshot renders a batch's aggregate progress from the live job
// states.
func (s *Service) BatchSnapshot(b *batch) BatchView {
	view := BatchView{ID: b.id, Total: len(b.jobs), Items: make([]BatchItem, len(b.jobs))}
	for i, j := range b.jobs {
		item := BatchItem{Index: i}
		if j == nil {
			item.Error = b.errs[i]
			view.Rejected++
			view.Items[i] = item
			continue
		}
		jv := s.Snapshot(j)
		item.JobID = jv.ID
		item.State = jv.State
		item.Cached = jv.Cached
		item.Error = jv.Error
		item.Result = jv.Result
		switch jv.State {
		case StateDone:
			view.Done++
		case StateFailed:
			view.Failed++
		case StateQuarantined:
			view.Quarantined++
		default:
			view.Pending++
		}
		view.Items[i] = item
	}
	return view
}

// wait blocks until every accepted job in the batch reaches a terminal
// state or done is closed.
func (b *batch) wait(done <-chan struct{}) {
	for _, j := range b.jobs {
		if j == nil {
			continue
		}
		select {
		case <-j.Done():
		case <-done:
			return
		}
	}
}
