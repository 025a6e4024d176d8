package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// verdict is the verdict part of lrserved's result: the fields that must
// not change between versions of the program. Work counts (explicit
// states, table and certificate bytes) and the prose summary are left out.
type verdict struct {
	Deadlock                  string   `json:"deadlock"`
	DeadlockWitnessK          int      `json:"deadlock_witness_k,omitempty"`
	Livelock                  string   `json:"livelock"`
	LivelockWitnessK          int      `json:"livelock_witness_k,omitempty"`
	ContiguousOnly            bool     `json:"contiguous_only,omitempty"`
	LivelockBoundedFreeK      int      `json:"livelock_bounded_free_k,omitempty"`
	SelfStabilizing           bool     `json:"self_stabilizing"`
	CrossValidated            []int    `json:"cross_validated,omitempty"`
	Disagreements             []string `json:"disagreements,omitempty"`
	InvariantDeadlock         string   `json:"invariant_deadlock,omitempty"`
	InvariantLivelock         string   `json:"invariant_livelock,omitempty"`
	InvariantClosure          string   `json:"invariant_closure,omitempty"`
	LivelockProvedByInvariant bool     `json:"livelock_proved_by_invariant,omitempty"`
}

// key renders the verdict deterministically; equal verdicts have equal
// keys.
func (v *verdict) key() string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// jobView is the part of lrserved's job JSON the benchmark reads.
type jobView struct {
	ID         string   `json:"id"`
	State      string   `json:"state"`
	Cached     bool     `json:"cached"`
	Error      string   `json:"error"`
	CompileNS  int64    `json:"compile_ns"`
	Result     *verdict `json:"result"`
	CreatedAt  string   `json:"created_at"`
	StartedAt  string   `json:"started_at"`
	FinishedAt string   `json:"finished_at"`
}

// batchView is the part of lrserved's batch JSON the benchmark reads.
type batchView struct {
	Items []struct {
		JobID  string   `json:"job_id"`
		State  string   `json:"state"`
		Error  string   `json:"error"`
		Result *verdict `json:"result"`
	} `json:"items"`
}

// answers records the first verdict lrserved gave for each spec id and
// counts later answers that differ from it.
type answers struct {
	mu         sync.Mutex
	first      []*verdict
	keys       []string
	mismatches int
	examples   []string
}

func newAnswers(n int) *answers {
	return &answers{first: make([]*verdict, n), keys: make([]string, n)}
}

// note records v as an answer for spec id and reports whether it agrees
// with the answers before it.
func (a *answers) note(id int, v *verdict) bool {
	k := v.key()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.first[id] == nil {
		a.first[id], a.keys[id] = v, k
		return true
	}
	if a.keys[id] == k {
		return true
	}
	a.mismatches++
	if len(a.examples) < 10 {
		a.examples = append(a.examples, fmt.Sprintf("spec %d answered %s, earlier %s", id, k, a.keys[id]))
	}
	return false
}

// sample is the client's record of one request.
type sample struct {
	due     time.Time     // when the request was due (closed loop: sent)
	latency time.Duration // response time minus due time
	lag     time.Duration // hand-off to a sender minus due time (open loop only)
	specs   int           // verdicts the request asked for
	failed  int           // of those, how many were not delivered correctly
	status  int           // HTTP status (0 on a transport error)
	// Traced passes only: the job view of a single request, the job ids
	// of a batch's items.
	job    *jobView
	jobIDs []string
}

// client sends workload requests to one lrserved.
type client struct {
	http  *http.Client
	base  string
	ans   *answers
	trace bool
}

// newClient builds a plain net/http client allowing one connection per
// CPU. It deliberately does not retry: a 503 is a refusal and counts as a
// failure.
func newClient(base string, ans *answers, trace bool) *client {
	n := numSenders()
	return &client{
		http: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     n,
				MaxIdleConnsPerHost: n,
				DisableCompression:  true,
			},
			Timeout: 3 * time.Minute,
		},
		base:  base,
		ans:   ans,
		trace: trace,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends r, checks every verdict in the response and returns the
// sample; due is when the request was due (the send time in a closed
// loop).
func (c *client) do(r *request, due time.Time) sample {
	s := sample{specs: len(r.ids), failed: len(r.ids), due: due}
	path := "/v1/verify"
	if r.batch {
		path = "/v1/verify/batch"
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		s.latency = time.Since(due)
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.latency = time.Since(due)
	s.status = resp.StatusCode
	if err != nil || resp.StatusCode != http.StatusOK {
		return s
	}
	if r.batch {
		var v batchView
		if json.Unmarshal(body, &v) != nil || len(v.Items) != len(r.ids) {
			return s
		}
		s.failed = 0
		for i, it := range v.Items {
			if it.State != "done" || it.Result == nil || !c.ans.note(r.ids[i], it.Result) {
				s.failed++
			}
			if c.trace {
				s.jobIDs = append(s.jobIDs, it.JobID)
			}
		}
		return s
	}
	var v jobView
	if json.Unmarshal(body, &v) != nil {
		return s
	}
	if v.State == "done" && v.Result != nil && c.ans.note(r.ids[0], v.Result) {
		s.failed = 0
	}
	if c.trace {
		s.job = &v
	}
	return s
}

// closedLoop sends reqs from one sender per connection, each sending its
// next request as soon as the previous one is answered, and returns the
// samples in request order and the phase's wall time.
func (c *client) closedLoop(reqs []request) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < numSenders(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = c.do(&reqs[i], time.Now())
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// per second, drawn from seed.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// realtimePacer moves the calling OS thread to SCHED_FIFO at the lowest
// real-time priority. With both CPUs busy, a normal thread woken from
// nanosleep(2) can wait milliseconds for its turn, which would put the
// generator, not the server, in the tail; a real-time thread runs at once.
// It needs CAP_SYS_NICE; without it the pacer stays a normal thread and
// its lag is reported as measured.
func realtimePacer() error {
	param := struct{ priority int32 }{1}
	const schedFIFO = 1
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedFIFO, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return errno
	}
	return nil
}

// openLoop sends reqs[i] at start+schedule[i] whatever the state of earlier
// requests. One pacer on a locked, real-time OS thread sleeps with
// nanosleep(2) until each due time and hands the request to its own
// goroutine; a request that is already due is sent at once. The transport
// caps the connections, so a stalled server makes requests wait for a
// connection, and that wait counts, because latency runs from the due
// time. The phase runs with one more P than CPUs, so the pacer never waits
// for a P a sender holds. pacerErr reports why the pacer could not be made
// real-time, if it could not.
func (c *client) openLoop(reqs []request, schedule []time.Duration) (out []sample, pacerErr error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	// The benchmark's live heap is a few MiB, so the default GC target makes it
	// collect every few milliseconds, and mark assists delay the pacer.
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	out = make([]sample, len(reqs))
	var wg sync.WaitGroup
	done := make(chan struct{})
	t0 := time.Now()
	go func() {
		// Never unlocked: the thread exits with the goroutine, so its
		// real-time policy cannot leak into the runtime's thread pool.
		runtime.LockOSThread()
		defer close(done)
		pacerErr = realtimePacer()
		for i := range reqs {
			due := t0.Add(schedule[i])
			nanosleep(time.Until(due))
			lag := time.Since(due)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out[i] = c.do(&reqs[i], due)
				out[i].lag = lag
			}(i)
		}
	}()
	<-done
	wg.Wait()
	return out, pacerErr
}
