package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"paramring/internal/corpus"
	"paramring/internal/explicit"
	"paramring/internal/invariant"
	"paramring/internal/ltg"
	"paramring/internal/rcg"
	"paramring/internal/service"
	"paramring/internal/verify"
)

// span is one timed interval of a traced run. Spans of one request share a
// trace id; parent 0 marks a root.
type span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	spans []span
	next  uint64
}

func (r *recorder) add(trace, parent uint64, name string, start, end time.Time) uint64 {
	r.next++
	r.spans = append(r.spans, span{trace, r.next, parent, name, start.UnixNano(), end.UnixNano()})
	return r.next
}

// newTrace starts a trace with its root span and returns both ids.
func (r *recorder) newTrace(name string, start, end time.Time) (trace, root uint64) {
	id := r.add(0, 0, name, start, end)
	r.spans[len(r.spans)-1].TraceID = id
	return id, id
}

// timed runs fn and records it as a child span, returning its duration.
func (r *recorder) timed(trace, parent uint64, name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.add(trace, parent, name, t0, t1)
	return t1.Sub(t0)
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startHealthPoll samples /healthz every 100 ms until the returned function
// is called, which returns the largest queue depth seen.
func startHealthPoll(base string) func() int {
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan int, 1)
	go func() { out <- pollHealth(ctx, base, 100*time.Millisecond) }()
	return func() int {
		cancel()
		return <-out
	}
}

// tracedBatches is how many of a traced pass's last batches have their job
// views fetched: lrserved retains only recent jobs.
const tracedBatches = 16

// fetchBatchJobs fetches the job views of the items of the last
// tracedBatches batch requests in ss.
func fetchBatchJobs(c *http.Client, base string, ss []sample) ([]jobView, error) {
	var out []jobView
	for _, s := range ss[max(0, len(ss)-tracedBatches):] {
		for _, id := range s.jobIDs {
			resp, err := c.Get(base + "/v1/jobs/" + id)
			if err != nil {
				return nil, err
			}
			var j jobView
			err = json.NewDecoder(resp.Body).Decode(&j)
			drainClose(resp.Body)
			if err != nil {
				return nil, fmt.Errorf("/v1/jobs/%s: %w", id, err)
			}
			out = append(out, j)
		}
	}
	return out, nil
}

func stampTime(s string) (time.Time, bool) {
	if s == "" {
		return time.Time{}, false
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	return t, err == nil
}

// jobTimes holds one job's server-side timestamps.
type jobTimes struct {
	created, started, finished time.Time
	hasStart                   bool
}

func timesOf(j *jobView) (jobTimes, bool) {
	var t jobTimes
	var ok bool
	if t.created, ok = stampTime(j.CreatedAt); !ok {
		return t, false
	}
	if t.finished, ok = stampTime(j.FinishedAt); !ok {
		return t, false
	}
	t.started, t.hasStart = stampTime(j.StartedAt)
	return t, true
}

func delta(p *pass, name string) float64 { return p.after[name] - p.before[name] }

func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// jobsOf returns the job views behind a traced sample: the response's own
// for a single request, the retained ones of its items for a batch.
func jobsOf(s *sample, byID map[string]*jobView) []*jobView {
	if s.job != nil {
		return []*jobView{s.job}
	}
	var out []*jobView
	for _, id := range s.jobIDs {
		if j, ok := byID[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// perLayer fills r with the per-layer metrics: the traced pass tp gives
// the client and server-side spans, the queue depth and the /metrics
// deltas, the untraced pass p the tracing overhead, and an in-process
// replay of a sample of the specs times each layer's public functions.
func perLayer(e env, w workload, r *result, in *inputs, p, tp *pass) error {
	rec := &recorder{}
	byID := map[string]*jobView{}
	for i := range tp.jobs {
		byID[tp.jobs[i].ID] = &tp.jobs[i]
	}
	var front, queue, run []time.Duration
	var compile []float64
	counted := map[string]bool{}
	rejected := 0
	for _, ss := range [][]sample{tp.warm, tp.open, tp.closed} {
		for i := range ss {
			s := &ss[i]
			if s.status == http.StatusServiceUnavailable {
				rejected++
			}
			trace, root := rec.newTrace("client", s.due, s.due.Add(s.latency))
			var first, last time.Time
			for _, j := range jobsOf(s, byID) {
				t, ok := timesOf(j)
				if !ok {
					continue
				}
				if first.IsZero() || t.created.Before(first) {
					first = t.created
				}
				if t.finished.After(last) {
					last = t.finished
				}
				switch {
				case j.Cached:
					rec.add(trace, root, "service.cache_hit", t.created, t.finished)
				case t.hasStart:
					rec.add(trace, root, "service.queue", t.created, t.started)
					rec.add(trace, root, "service.run", t.started, t.finished)
					if !counted[j.ID] {
						counted[j.ID] = true
						queue = append(queue, t.started.Sub(t.created))
						run = append(run, t.finished.Sub(t.started))
						if j.CompileNS > 0 {
							compile = append(compile, float64(j.CompileNS)/1e3)
						}
					}
				}
			}
			if !last.IsZero() {
				front = append(front, s.latency-last.Sub(first))
			}
		}
	}

	r.set("service.front_us_p50", durPercentile(front, 50, time.Microsecond), "us")
	r.set("service.result_cache_hit_ratio", ratio(delta(tp, "lrserved_cache_hits_total"), delta(tp, "lrserved_cache_misses_total")), "ratio")
	r.set("service.spec_cache_hit_ratio", ratio(delta(tp, "lrserved_spec_cache_hits_total"), delta(tp, "lrserved_spec_cache_misses_total")), "ratio")
	r.set("service.queue_wait_ms_p50", durPercentile(queue, 50, time.Millisecond), "ms")
	r.set("service.queue_wait_ms_p99", durPercentile(queue, 99, time.Millisecond), "ms")
	r.set("service.queued_max", float64(tp.queued), "count")
	r.set("service.run_ms_p50", durPercentile(run, 50, time.Millisecond), "ms")
	r.set("service.compile_us_mean", mean(compile), "us")
	r.set("service.rejected_503", float64(rejected), "count")
	r.set("service.jobs_failed", delta(tp, "lrserved_jobs_failed_total"), "count")
	r.set("service.jobs_retried", delta(tp, "lrserved_jobs_retried_total"), "count")
	r.set("service.journal_errors", delta(tp, "lrserved_journal_errors_total"), "count")
	r.set("service.cache_write_errors", delta(tp, "lrserved_cache_write_errors_total"), "count")
	r.set("cluster.leases_granted", delta(tp, "lrserved_cluster_lease_granted_total"), "count")
	r.set("cluster.leases_expired", delta(tp, "lrserved_cluster_lease_expired_total"), "count")
	r.set("cluster.redispatches", delta(tp, "lrserved_cluster_redispatch_total"), "count")
	r.set("cluster.late_results", delta(tp, "lrserved_cluster_late_results_total"), "count")
	r.note("queue and run times of %d jobs that ran an engine (warm-up included)", len(run))

	if err := replay(e, w, r, in, tp.runDir, rec); err != nil {
		return err
	}

	lag := make([]time.Duration, len(tp.open))
	for i, s := range tp.open {
		lag[i] = s.lag
	}
	lag99 := durPercentile(lag, 99, time.Microsecond)
	openLat := latencies(tp.open)
	tail := tailPercentile(len(openLat))
	r.set("gen.lag_us_p50", durPercentile(lag, 50, time.Microsecond), "us")
	r.set("gen.lag_us_p99", lag99, "us")
	r.set("gen.open_latency_p50_ms", durPercentile(openLat, 50, time.Millisecond), "ms")
	r.set("gen.open_latency_tail_ms", durPercentile(openLat, tail, time.Millisecond), "ms")
	r.set("trace.overhead_pct", 100*(p50Latency(tp.closed)/p50Latency(p.closed)-1), "%")
	sent := len(tp.open) + len(tp.closed)
	failed := 0
	for _, ss := range [][]sample{tp.open, tp.closed} {
		for _, s := range ss {
			if s.failed > 0 {
				failed++
			}
		}
	}
	r.note("gen: %d requests sent, %d ok, %d failed; open loop: %d requests at %g/s, gen.open_latency_tail_ms is p%g",
		sent, sent-failed, failed, len(tp.open), w.openRate, tail)
	if tp.pacerErr != nil {
		r.note("pacer runs at normal priority (SCHED_FIFO refused: %v)", tp.pacerErr)
	}
	if lag99 > float64(maxLagP99/time.Microsecond) {
		r.note("INVALID OPEN LOOP: generator lag p99 %.0f µs exceeds %v", lag99, maxLagP99)
	}

	path := e.spans
	if path == "" {
		path = filepath.Join(e.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, e.seed))
	}
	if err := rec.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.note("%d spans written to %s", len(rec.spans), path)
	return nil
}

func p50Latency(ss []sample) float64 {
	return durPercentile(latencies(ss), 50, time.Millisecond)
}

// replayLimit caps the specs a traced run replays in-process; invariant-lp
// specs cost up to a second each, so it replays two pool blocks of 13.
func replayLimit(w workload, n int) int {
	switch w.name {
	case "invariant-lp":
		return min(n, 26)
	case "batch-cluster":
		return min(n, 3*batchSize)
	}
	return min(n, 200)
}

// probeLimit caps the replayed specs on which a lane their requests do not
// enable is run anyway, so that every layer is measured on every workload.
const probeLimit = 16

// replaySample picks the specs to replay: whole leading batches or pool
// blocks where siblings matter, else a seeded sample.
func replaySample(e env, w workload, n int) []int {
	k := replayLimit(w, n)
	ids := make([]int, k)
	if w.name == "batch-cluster" || w.name == "invariant-lp" {
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	copy(ids, rand.New(rand.NewSource(e.seed)).Perm(n)[:k])
	return ids
}

// replay re-runs a sample of the workload's specs in-process, timing the
// public entry point of each layer on the serving path: the DSL front end
// (through verify.SpecCache), verify.CheckCtx, and then the pieces CheckCtx
// is made of — Theorem 4.2 (rcg), Theorem 5.14 through the per-family memo
// (ltg, corpus), witness confirmation, the invariant lane and its
// certificate re-check, and explicit cross-validation per K — and finally
// service.Submit and the wait for Done on a journaled in-process service.
//
// A lane the request options leave off (the invariant lane, or
// cross-validation to K=coldXval) is run anyway on the first probeLimit
// specs, as a probe of that layer on this workload's protocols. Probes
// are recorded under their own root span and are not part of
// verify.self_ms_total, which subtracts only the calls CheckCtx makes.
func replay(e env, w workload, r *result, in *inputs, runDir string, rec *recorder) error {
	ids := replaySample(e, w, len(in.specs))
	ctx := context.Background()
	verifyMemos, layerMemos := corpus.NewFamilyMemos(0), corpus.NewFamilyMemos(0)
	var (
		compileUS, checkMS, rcgUS, ltgUS, analyzeMS []float64
		checkT, rcgT, ltgT, confirmT, onPathT       time.Duration
		analyzeT, recheckT, xvalT                   time.Duration
		certBytes                                   []float64
		states, peak                                uint64
		checkBy                                     = map[int]time.Duration{}
		families                                    = map[string]bool{}
		refuted, potential, analyzed, proved        int
	)
	for idx, id := range ids {
		s := in.specs[id]
		now := time.Now()
		trace, root := rec.newTrace("replay", now, now)
		rootIdx := len(rec.spans) - 1
		var cs *verify.CompiledSpec
		var err error
		d := rec.timed(trace, root, "dsl.compile", func() { cs, _, err = verify.NewSpecCache(1).Compile(s.source) })
		if err != nil {
			return fmt.Errorf("replay %s: %w", s.name, err)
		}
		compileUS = append(compileUS, float64(d)/1e3)
		p := cs.Protocol
		families[corpus.FamilyKey(p)] = true
		base := ltg.CheckOptions{MaxTArcs: 16}
		opts := verify.Options{ConfirmMaxK: 7, CrossValidateMaxK: s.opts.CrossValidateMaxK,
			Check: verifyMemos.CheckOptions(p, base), Workers: 1, Invariant: s.opts.Invariant}
		var rep *verify.Report
		d = rec.timed(trace, root, "verify.check", func() { rep, err = verify.CheckCtx(ctx, p, opts) })
		if err != nil {
			return fmt.Errorf("replay %s: %w", s.name, err)
		}
		checkT += d
		checkBy[id] = d
		checkMS = append(checkMS, float64(d)/1e6)

		d = rec.timed(trace, root, "rcg.theorem42", func() {
			dl, _ := rcg.Build(p.Compile()).CheckDeadlockFreedom(256)
			if !dl.Free {
				refuted++
			}
		})
		rcgT += d
		rcgUS = append(rcgUS, float64(d)/1e3)
		var ll ltg.Report
		var llErr error
		d = rec.timed(trace, root, "ltg.theorem514", func() {
			ll, llErr = ltg.CheckLivelockFreedom(p, layerMemos.CheckOptions(p, base))
		})
		ltgT += d
		ltgUS = append(ltgUS, float64(d)/1e3)
		if llErr == nil && ll.Verdict == ltg.VerdictPotentialLivelock {
			potential++
			confirmT += rec.timed(trace, root, "ltg.confirm", func() { _, _ = ltg.ConfirmWitness(p, ll.Witness, 7) })
		}

		// The invariant lane and cross-validation: on the request path when
		// the options enable them, else as probes under their own root.
		invTrace, invParent, xvalTrace, xvalParent := trace, root, trace, root
		invOnPath, xvalMaxK := s.opts.Invariant, s.opts.CrossValidateMaxK
		probeRoot := -1
		if (!invOnPath || xvalMaxK < 2) && idx < probeLimit {
			now := time.Now()
			pt, pr := rec.newTrace("probe", now, now)
			probeRoot = len(rec.spans) - 1
			if !invOnPath {
				invTrace, invParent = pt, pr
			}
			if xvalMaxK < 2 {
				xvalTrace, xvalParent, xvalMaxK = pt, pr, coldXval
			}
		}
		if invOnPath || probeRoot >= 0 {
			analyzed++
			var irep *invariant.Report
			d = rec.timed(invTrace, invParent, "invariant.analyze", func() { irep, err = invariant.Analyze(ctx, p, invariant.Options{}) })
			analyzeT += d
			analyzeMS = append(analyzeMS, float64(d)/1e6)
			if invOnPath {
				onPathT += d
			}
			if err == nil && irep.Certificate != nil {
				d = rec.timed(invTrace, invParent, "invariant.recheck", func() { _ = invariant.CheckCertificate(p, irep.Certificate) })
				recheckT += d
				if invOnPath {
					onPathT += d
				}
				certBytes = append(certBytes, float64(irep.Certificate.Size()))
				if irep.Livelock == invariant.Holds {
					proved++
				}
			}
		}
		livelockSearch := rep.Livelock == verify.Proved || rep.InvariantLivelock == verify.Proved
		for k := 2; k <= xvalMaxK; k++ {
			d = rec.timed(xvalTrace, xvalParent, fmt.Sprintf("explicit.xval.K=%d", k), func() {
				in, err := explicit.NewInstanceCtx(ctx, p, k, explicit.WithWorkers(1))
				if err != nil {
					return
				}
				states += in.NumStates()
				peak = max(peak, in.TableBytes())
				in.IllegitimateDeadlocks()
				if livelockSearch {
					_, _ = in.FindLivelockCtx(ctx)
				}
			})
			xvalT += d
			if s.opts.CrossValidateMaxK >= 2 {
				onPathT += d
			}
		}
		end := time.Now().UnixNano()
		rec.spans[rootIdx].EndNS = end
		if probeRoot >= 0 {
			rec.spans[probeRoot].EndNS = end
		}
	}

	submitMS, finishMS, err := replayService(in, runDir, ids, checkBy, rec)
	if err != nil {
		return err
	}

	layers := rcgT + ltgT + confirmT + onPathT
	n := float64(len(ids))
	r.set("corpus.family_memo_hit_ratio", memoHitRatio(layerMemos), "ratio")
	r.set("verify.check_ms_p50", percentile(checkMS, 50), "ms")
	r.set("verify.check_ms_total", ms(checkT), "ms")
	r.set("verify.self_ms_total", ms(checkT-layers), "ms")
	r.set("dsl.compile_us_p50", percentile(compileUS, 50), "us")
	r.set("rcg.theorem42_us_p50", percentile(rcgUS, 50), "us")
	r.set("rcg.total_ms", ms(rcgT), "ms")
	r.set("ltg.theorem514_us_p50", percentile(ltgUS, 50), "us")
	r.set("ltg.total_ms", ms(ltgT), "ms")
	r.set("invariant.analyze_ms_p50", percentile(analyzeMS, 50), "ms")
	r.set("invariant.analyze_ms_p90", percentile(analyzeMS, 90), "ms")
	r.set("invariant.total_ms", ms(analyzeT), "ms")
	r.set("invariant.recheck_ms_total", ms(recheckT), "ms")
	r.set("invariant.cert_bytes_mean", mean(certBytes), "bytes")
	r.set("explicit.xval_ms_total", ms(xvalT), "ms")
	statesPerS := 0.0
	if xvalT > 0 {
		statesPerS = float64(states) / xvalT.Seconds()
	}
	r.set("explicit.states_per_s", statesPerS, "states/s")
	r.set("explicit.peak_table_bytes", float64(peak), "bytes")
	r.set("service.submit_ms_p50", submitMS, "ms")
	r.set("service.finish_ms_p50", finishMS, "ms")

	r.note("replayed %d specs in-process: corpus.families %d, ltg.confirm_ms_total %.3f, explicit.states_total %d; the request-path layers account for %.1f%% of verify.check_ms_total",
		len(ids), len(families), ms(confirmT), states, 100*float64(layers)/float64(max(checkT, 1)))
	r.note("shares: rcg refuted %.2f, ltg potential livelock %.2f, invariant proved %.2f of %d analyzed (probes on the first %d specs where the requests leave a lane off)",
		float64(refuted)/n, float64(potential)/n, float64(proved)/float64(max(analyzed, 1)), analyzed, probeLimit)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func memoHitRatio(m *corpus.FamilyMemos) float64 {
	h, miss := m.Stats()
	return ratio(float64(h), float64(miss))
}

// replayService submits the sampled specs to an in-process journaled
// service one at a time. Submit covers parse, admission and the fsynced
// submit record; the wait for Done, minus the same spec's verify.CheckCtx
// time, is the result write-through and the fsynced done record.
func replayService(in *inputs, runDir string, ids []int, checkBy map[int]time.Duration, rec *recorder) (submitMS, finishMS float64, err error) {
	dir, err := os.MkdirTemp(runDir, "replay-service-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	svc, err := service.New(service.Config{CacheDir: dir, Workers: 1, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		return 0, 0, err
	}
	svc.Start()
	defer svc.Shutdown(context.Background())
	var submit, finish []float64
	for _, id := range ids {
		s := in.specs[id]
		req := service.Request{Spec: s.source, Options: service.RequestOptions{
			CrossValidateMaxK: s.opts.CrossValidateMaxK, Invariant: s.opts.Invariant}}
		t0 := time.Now()
		j, err := svc.Submit(req)
		t1 := time.Now()
		if err != nil {
			return 0, 0, fmt.Errorf("replay submit %s: %w", s.name, err)
		}
		<-j.Done()
		t2 := time.Now()
		trace, root := rec.newTrace("replay.service", t0, t2)
		rec.add(trace, root, "service.submit", t0, t1)
		rec.add(trace, root, "service.wait", t1, t2)
		submit = append(submit, ms(t1.Sub(t0)))
		finish = append(finish, ms(t2.Sub(t1)-checkBy[id]))
	}
	return percentile(submit, 50), percentile(finish, 50), nil
}
