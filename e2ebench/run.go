package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// workload is one traffic mix against one lrserved configuration.
type workload struct {
	name string
	// args are the lrserved flags besides -addr and -cache-dir.
	args []string
	// ready reports whether a started server has finished its own set-up
	// (nil: /healthz answering is enough).
	ready func(health) bool
	// inputs generates the workload's specs and a stream of n requests.
	inputs func(root string, seed int64, n int) (*inputs, error)
	// perSecond is the number of closed-loop requests per second of run
	// length: about what the closed loop completes per second on the
	// calibration machine (README.md), so a run takes about -seconds.
	perSecond float64
	// openRate is the arrival rate, in requests per second, of the traced
	// run's open-loop phase: well below what the closed loop sustains.
	openRate float64
}

// setupReps is how many times a run starts lrserved; setup_s is the median.
const setupReps = 7

func workloads() []workload {
	return []workload{
		{
			name:      "hot-resubmit",
			inputs:    hotInputs,
			perSecond: 13000,
			openRate:  3000,
		},
		{
			name:      "cold-durable",
			inputs:    func(_ string, seed int64, n int) (*inputs, error) { return coldInputs(seed, n) },
			perSecond: 650,
			openRate:  300,
		},
		{
			name:      "invariant-lp",
			inputs:    invInputs,
			perSecond: 7.8, // 9 pool blocks of 13 in 15 s
			openRate:  4,
		},
		{
			name:      "batch-cluster",
			args:      []string{"-coordinator", "-workers", "3"},
			ready:     func(h health) bool { return h.Stats.ClusterWorkers >= 3 },
			inputs:    func(_ string, seed int64, n int) (*inputs, error) { return batchInputs(seed, n) },
			perSecond: 12,
			openRate:  5,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run of one workload.
type result struct {
	workload  string
	metrics   map[string]metric
	attempted int
	failed    int
	correct   bool
	notes     []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{v, unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// env is what every run needs from the command line.
type env struct {
	root   string // repository root
	dir    string // build and scratch directory (.bench_build)
	bin    string // the lrserved binary
	seed   int64
	secs   float64
	spans  string // span file of a traced run ("" = one per workload in dir)
	update bool   // rewrite the golden verdict digest (seed 1 only)
}

// pass is one live pass of a workload against a fresh lrserved: the
// set-up repetitions, then the timed phases.
type pass struct {
	setup    []time.Duration
	warm     []sample // the warm-up requests
	open     []sample
	closed   []sample
	closedT  time.Duration
	cpu      time.Duration
	rssMB    float64
	before   map[string]float64 // /metrics at the start of the timed phases
	after    map[string]float64 // /metrics at their end
	queued   int                // largest /healthz queue depth (traced passes)
	jobs     []jobView          // the last batches' job views (traced passes)
	stopErr  error
	pacerErr error // why the open-loop pacer is not real-time, if it is not
	runDir   string
}

// livePass starts lrserved setupReps times, keeps the last instance, sends
// it the warm-up requests, the open-loop requests (if any) and then the
// closed-loop ones, and stops it. Traced passes keep every job view and
// poll the queue depth.
func livePass(e env, w workload, in *inputs, ans *answers, open, closed []request, traced bool) (*pass, error) {
	tag := "e2e"
	if traced {
		tag = "traced"
	}
	runDir := filepath.Join(e.dir, "runs", fmt.Sprintf("%s-seed%d-%s-%d", w.name, e.seed, tag, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	p := &pass{runDir: runDir}
	// Cache directories are removed only after the timed phases, and the
	// disk is flushed before the first start and after the removal, so no
	// timing pays for writes or deletions that are not its own.
	var caches []string
	defer func() {
		for _, dir := range caches {
			os.RemoveAll(dir)
		}
		syscall.Sync()
	}()
	syscall.Sync()
	var srv *server
	for rep := 0; rep < setupReps; rep++ {
		s, d, err := startServer(e.bin, runDir, fmt.Sprintf("setup%d", rep), w.args, w.ready)
		if err != nil {
			return nil, err
		}
		caches = append(caches, s.cacheDir)
		p.setup = append(p.setup, d)
		if rep == setupReps-1 {
			srv = s
			break
		}
		if err := s.stop(); err != nil {
			return nil, fmt.Errorf("stop set-up server: %w", err)
		}
	}

	c := newClient(srv.base, ans, traced)
	defer c.close()
	fail := func(err error) (*pass, error) {
		srv.stop()
		return nil, err
	}
	// The warm-up requests fill lrserved's caches before anything is timed.
	p.warm, _ = c.closedLoop(in.warm)
	for _, x := range p.warm {
		if x.failed > 0 {
			return fail(fmt.Errorf("warm-up request failed (HTTP %d)", x.status))
		}
	}
	var err error
	if p.before, err = scrapeMetrics(c.http, srv.base); err != nil {
		return fail(err)
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return fail(err)
	}
	var stopPoll func() int
	if traced {
		stopPoll = startHealthPoll(srv.base)
	}
	if len(open) > 0 {
		p.open, p.pacerErr = c.openLoop(open, poissonSchedule(e.seed, w.openRate, len(open)))
	}
	p.closed, p.closedT = c.closedLoop(closed)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return fail(err)
	}
	p.cpu = cpu1 - cpu0
	if stopPoll != nil {
		p.queued = stopPoll()
	}
	if traced {
		if p.jobs, err = fetchBatchJobs(c.http, srv.base, p.closed); err != nil {
			return fail(err)
		}
	}
	if p.after, err = scrapeMetrics(c.http, srv.base); err != nil {
		return fail(err)
	}
	if p.rssMB, err = srv.peakRSS(); err != nil {
		return fail(err)
	}
	p.stopErr = srv.stop()
	return p, nil
}

func latencies(ss []sample) []time.Duration {
	ds := make([]time.Duration, len(ss))
	for i, s := range ss {
		ds[i] = s.latency
	}
	return ds
}

// delivered counts the verdicts the samples delivered correctly.
func delivered(ss []sample) int {
	n := 0
	for _, s := range ss {
		n += s.specs - s.failed
	}
	return n
}

// endToEnd fills r with the end-to-end metrics of an untraced pass: all of
// them come from its closed loop.
func endToEnd(r *result, p *pass) {
	ds := latencies(p.closed)
	tail := tailPercentile(len(ds))
	r.note("latency_tail_ms is p%g of %d requests", tail, len(ds))
	verdicts := delivered(p.closed)
	r.set("latency_p50_ms", durPercentile(ds, 50, time.Millisecond), "ms")
	r.set("latency_tail_ms", durPercentile(ds, tail, time.Millisecond), "ms")
	r.set("throughput_specs_per_s", float64(verdicts)/p.closedT.Seconds(), "specs/s")
	r.set("cpu_ms_per_spec", ms(p.cpu)/float64(max(verdicts, 1)), "ms")
	r.set("peak_rss_mb", p.rssMB, "MiB")
	r.set("setup_s", durPercentile(p.setup, 50, time.Second), "s")
}

// countFailures adds the pass's requests to r's attempted and failed
// counts.
func countFailures(r *result, p *pass) {
	for _, ss := range [][]sample{p.open, p.closed} {
		for _, s := range ss {
			r.attempted += s.specs
			r.failed += s.failed
		}
	}
	if p.stopErr != nil {
		r.note("lrserved shutdown: %v", p.stopErr)
	}
}

// maxLagP99 is the generator lag beyond which an open-loop phase is
// invalid: the schedule was not kept, so latencies from due time overstate
// the server's.
const maxLagP99 = 500 * time.Microsecond

// runWorkload runs one workload. An untraced run is one pass whose closed
// loop gives the end-to-end metrics. A traced run is an untraced and a
// traced pass, each with a closed loop of half the run length, the traced
// one preceded by an open-loop phase of a quarter of it, plus the
// in-process replay; it gives the per-layer metrics.
func runWorkload(e env, w workload, traced bool) (*result, error) {
	r := &result{workload: w.name, correct: true}
	secs := e.secs
	nOpen := 0
	if traced {
		secs /= 2
		nOpen = max(1, int(math.Round(w.openRate*e.secs/4)))
	}
	nClosed := max(1, int(math.Round(w.perSecond*secs)))
	in, err := w.inputs(e.root, e.seed, nOpen+nClosed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	ans := newAnswers(len(in.specs))
	open, closed := in.reqs[:nOpen], in.reqs[nOpen:]
	p, err := livePass(e, w, in, ans, nil, closed, false)
	if err != nil {
		return nil, err
	}
	countFailures(r, p)
	if !traced {
		endToEnd(r, p)
		checkAnswers(e, w, r, in, ans, true)
		return r, nil
	}
	tp, err := livePass(e, w, in, ans, open, closed, true)
	if err != nil {
		return nil, err
	}
	countFailures(r, tp)
	if err := perLayer(e, w, r, in, p, tp); err != nil {
		return nil, err
	}
	checkAnswers(e, w, r, in, ans, false)
	return r, nil
}
