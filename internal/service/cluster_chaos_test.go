package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"paramring/internal/faultinject"
)

// The cluster chaos suite: for every fault scenario in the
// faultinject.ClusterScenarios matrix, a 3-worker cluster under injected
// faults must produce byte-identical verdicts to a single-node run, with
// zero lost and zero duplicated jobs, exercising the scenario's failover
// path (asserted on the cluster counters). The seed comes from
// LRSERVED_CHAOS_SEED (CI matrix) with a fixed default, and every cluster
// event is recorded to a transcript — appended to the file named by
// LRSERVED_CHAOS_TRANSCRIPT when set, logged on failure otherwise.

// chaosTranscript records the cluster event stream of one scenario run.
type chaosTranscript struct {
	mu       sync.Mutex
	scenario string
	seed     int64
	start    time.Time
	lines    []string
	counts   map[string]int
}

func newChaosTranscript(scenario string, seed int64) *chaosTranscript {
	return &chaosTranscript{
		scenario: scenario, seed: seed, start: time.Now(),
		counts: make(map[string]int),
	}
}

// record is wired as the ClusterConfig.Observer.
func (tr *chaosTranscript) record(event, jobID, workerID string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.counts[event]++
	tr.lines = append(tr.lines, fmt.Sprintf(
		"%s seed=%d +%06dms %-16s job=%-12s worker=%s",
		tr.scenario, tr.seed, time.Since(tr.start).Milliseconds(), event, jobID, workerID))
}

func (tr *chaosTranscript) count(event string) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.counts[event]
}

// flush appends the transcript to LRSERVED_CHAOS_TRANSCRIPT (the CI
// artifact) when set, and logs it on test failure either way.
func (tr *chaosTranscript) flush(t *testing.T) {
	t.Helper()
	tr.mu.Lock()
	lines := append([]string(nil), tr.lines...)
	tr.mu.Unlock()
	if path := os.Getenv("LRSERVED_CHAOS_TRANSCRIPT"); path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Errorf("chaos transcript: %v", err)
		} else {
			for _, l := range lines {
				fmt.Fprintln(f, l)
			}
			f.Close()
		}
	}
	if t.Failed() {
		for _, l := range lines {
			t.Log(l)
		}
	}
}

// chaosBaseline computes single-node verdicts for the n-job chaos
// workload: the reference every cluster verdict must match byte-for-byte.
func chaosBaseline(t *testing.T, n int) map[string][]byte {
	t.Helper()
	baseline := make(map[string][]byte, n)
	ref := newTestService(t, Config{Workers: 2}, true)
	for i := 0; i < n; i++ {
		j, err := ref.Submit(chaosRequest(i))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		v := ref.Snapshot(j)
		if v.State != StateDone {
			t.Fatalf("baseline job %d: %+v", i, v)
		}
		data, err := json.Marshal(v.Result)
		if err != nil {
			t.Fatal(err)
		}
		baseline[v.Name] = data
	}
	return baseline
}

// requireBaselineVerdict asserts one terminal view is done with the
// baseline result bytes.
func requireBaselineVerdict(t *testing.T, baseline map[string][]byte, v JobView) {
	t.Helper()
	if v.State != StateDone {
		t.Fatalf("job %s (%s) not done: %+v", v.ID, v.Name, v)
	}
	data, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := baseline[v.Name]
	if !ok {
		t.Fatalf("verdict for unknown protocol %q", v.Name)
	}
	if string(data) != string(want) {
		t.Fatalf("cluster verdict for %q diverged from single-node:\n got %s\nwant %s", v.Name, data, want)
	}
}

// scrapeCounter reads one counter's value off the /metrics exposition.
func scrapeCounter(t *testing.T, handler http.Handler, name string) uint64 {
	t.Helper()
	srv := httptest.NewServer(handler)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found in exposition", name)
	}
	v, err := strconv.ParseUint(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// blackholeSet is a concurrent set of jobIDs whose heartbeats are dropped.
type blackholeSet struct {
	mu   sync.Mutex
	jobs map[string]bool
}

func newBlackholeSet() *blackholeSet { return &blackholeSet{jobs: make(map[string]bool)} }

func (b *blackholeSet) add(jobID string) {
	b.mu.Lock()
	b.jobs[jobID] = true
	b.mu.Unlock()
}

func (b *blackholeSet) remove(jobID string) {
	b.mu.Lock()
	delete(b.jobs, jobID)
	b.mu.Unlock()
}

func (b *blackholeSet) filter(workerID, jobID string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.jobs[jobID]
}

const (
	chaosClusterTTL = 250 * time.Millisecond
	chaosClusterHB  = 50 * time.Millisecond
)

// TestClusterChaosWorkerKill: on every 3rd attempt the worker "dies" —
// its heartbeats stop and the attempt hangs far past the lease TTL. The
// lease must expire (the flagship failover counter), the job must
// re-dispatch and complete with the baseline verdict, and no job may be
// lost or duplicated.
func TestClusterChaosWorkerKill(t *testing.T) {
	seed := chaosSeed(t)
	const n = 10
	baseline := chaosBaseline(t, n)
	plan, err := faultinject.ClusterPlan(faultinject.ScenarioWorkerKill, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr := newChaosTranscript(faultinject.ScenarioWorkerKill, seed)
	defer tr.flush(t)

	holes := newBlackholeSet()
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		if plan.Fire(faultinject.SiteWorkerKill) {
			// The process-death shape: heartbeats stop AND the attempt
			// hangs past the TTL; lease expiry is the only way out.
			holes.add(id)
			time.Sleep(2 * chaosClusterTTL)
		}
		return nil
	}}
	// The kill ends at lease expiry: the dead attempt is gone, and the
	// re-dispatched attempt runs on a healthy worker whose renewals flow.
	// (Leaving the job blackholed forever would starve retries that land
	// queued behind a still-hung worker into quarantine.)
	observer := func(event, jobID, workerID string) {
		if event == "lease-expired" {
			holes.remove(jobID)
		}
		tr.record(event, jobID, workerID)
	}
	svc := newTestService(t, Config{
		QueueSize: 64, CacheDir: t.TempDir(),
		MaxAttempts: 6, RetryBaseDelay: time.Millisecond, Hooks: hooks,
		Workers: 3, LeaseTTL: chaosClusterTTL, HeartbeatInterval: chaosClusterHB,
		Cluster: &ClusterConfig{HeartbeatFilter: holes.filter, Observer: observer},
	}, true)

	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := svc.Submit(chaosRequest(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	seen := make(map[string]bool, n)
	for _, j := range jobs {
		waitDone(t, j)
		v := svc.Snapshot(j)
		requireBaselineVerdict(t, baseline, v)
		if seen[v.Name] {
			t.Fatalf("protocol %q reached a terminal state twice", v.Name)
		}
		seen[v.Name] = true
	}
	if len(seen) != n {
		t.Fatalf("lost jobs: %d of %d protocols accounted for", len(seen), n)
	}

	// The acceptance counter: worker-kill must demonstrably fail over via
	// lease expiry, observable on the exported metric.
	if fired := plan.Count(faultinject.SiteWorkerKill); fired == 0 {
		t.Fatalf("seed %d fired no worker kills over %d attempts; vacuous run",
			seed, plan.Calls(faultinject.SiteWorkerKill))
	}
	expired := scrapeCounter(t, svc.Handler(), "lrserved_cluster_lease_expired_total")
	if expired == 0 {
		t.Fatal("lrserved_cluster_lease_expired_total = 0: no lease expired despite worker kills")
	}
	if redispatched := svc.Metrics().ClusterRedispatches.Load(); redispatched != expired {
		t.Fatalf("expired leases = %d but redispatches = %d: every expiry owes exactly one re-dispatch",
			expired, redispatched)
	}
	if tr.count("lease-expired") != int(expired) {
		t.Fatalf("transcript saw %d lease-expired events, metrics say %d", tr.count("lease-expired"), expired)
	}
}

// TestClusterChaosHeartbeatBlackhole: the network-partition shape — the
// worker stays alive and busy, but its renewals are dropped. The lease
// expires, the job re-dispatches, and the partitioned attempt's eventual
// completion must be counted and dropped as a late result, never
// double-completing the job.
func TestClusterChaosHeartbeatBlackhole(t *testing.T) {
	seed := chaosSeed(t)
	const n = 10
	baseline := chaosBaseline(t, n)
	plan, err := faultinject.ClusterPlan(faultinject.ScenarioHeartbeatBlackhole, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr := newChaosTranscript(faultinject.ScenarioHeartbeatBlackhole, seed)
	defer tr.flush(t)

	holes := newBlackholeSet()
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		if plan.Fire(faultinject.SiteHeartbeatBlackhole) {
			// Partition, not death: renewals vanish but the attempt keeps
			// going just past the TTL, so its completion arrives late.
			holes.add(id)
			time.Sleep(2 * chaosClusterTTL)
		}
		return nil
	}}
	// The partition heals at expiry (same rationale as the worker-kill
	// scenario: retries must not inherit the dead attempt's fault).
	observer := func(event, jobID, workerID string) {
		if event == "lease-expired" {
			holes.remove(jobID)
		}
		tr.record(event, jobID, workerID)
	}
	svc := newTestService(t, Config{
		QueueSize: 64, CacheDir: t.TempDir(),
		MaxAttempts: 6, RetryBaseDelay: time.Millisecond, Hooks: hooks,
		Workers: 3, LeaseTTL: chaosClusterTTL, HeartbeatInterval: chaosClusterHB,
		Cluster: &ClusterConfig{HeartbeatFilter: holes.filter, Observer: observer},
	}, true)

	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := svc.Submit(chaosRequest(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitDone(t, j)
		requireBaselineVerdict(t, baseline, svc.Snapshot(j))
	}
	if fired := plan.Count(faultinject.SiteHeartbeatBlackhole); fired == 0 {
		t.Fatalf("seed %d fired no blackholes; vacuous run", seed)
	}
	m := svc.Metrics()
	if m.ClusterLeasesExpired.Load() == 0 {
		t.Fatal("no lease expired despite heartbeat blackholes")
	}
	// The partitioned attempts resolved after their leases died: their
	// outcomes must have been dropped as late results (content-addressing
	// makes the drop safe — the re-dispatched attempt recomputed the
	// identical verdict, as asserted against the baseline above).
	deadline := time.Now().Add(5 * time.Second)
	for m.ClusterLateResults.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.ClusterLateResults.Load() == 0 {
		t.Fatal("no late result recorded: blackholed attempts vanished instead of being counted")
	}
}

// TestClusterChaosCoordinatorRestart: the coordinator crashes mid-flight
// (after the fault plan's trigger completion) and restarts over the same
// journal. Outstanding leases are reconstructed, expired ones re-dispatch
// exactly once, every job still reaches its baseline verdict, and the
// quarantine/cache-hit counters never double-count across the restart.
func TestClusterChaosCoordinatorRestart(t *testing.T) {
	seed := chaosSeed(t)
	const n = 10
	baseline := chaosBaseline(t, n)
	plan, err := faultinject.ClusterPlan(faultinject.ScenarioCoordinatorRestart, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr := newChaosTranscript(faultinject.ScenarioCoordinatorRestart, seed)
	defer tr.flush(t)

	dir := t.TempDir()
	cfg := Config{
		QueueSize: 64, CacheDir: dir,
		MaxAttempts: 5, RetryBaseDelay: time.Millisecond,
		Hooks: &Hooks{BeforeVerify: func(id string, attempt int) error {
			time.Sleep(2 * time.Millisecond) // keep the queue busy so the crash lands mid-flight
			return nil
		}},
		Workers: 3, LeaseTTL: chaosClusterTTL, HeartbeatInterval: chaosClusterHB,
		Cluster: &ClusterConfig{Observer: tr.record},
	}

	svc1 := newTestService(t, cfg, false)
	svc1.Start()
	jobs1 := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := svc1.Submit(chaosRequest(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs1 = append(jobs1, j)
	}
	// Crash when the plan says so: Fire once per observed completion.
	crashAt := time.Now().Add(15 * time.Second)
	var counted uint64
	crashed := false
	for time.Now().Before(crashAt) {
		done := svc1.Metrics().JobsDone.Load()
		for counted < done {
			counted++
			if plan.Fire(faultinject.SiteCoordinatorCrash) {
				crashed = true
			}
		}
		if crashed || done == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	svc1.crash()
	if !crashed {
		t.Logf("seed %d: all %d jobs finished before the crash trigger; restart still exercises replay", seed, n)
	}

	// Terminal states reached before (or during) the crash must already be
	// baseline-correct; everything else must be journaled-replayable.
	finished := make(map[string]bool, n)
	for _, j := range jobs1 {
		v := svc1.Snapshot(j)
		switch v.State {
		case StateDone:
			requireBaselineVerdict(t, baseline, v)
			finished[v.Name] = true
		case StateFailed:
			if !v.Replayable {
				t.Fatalf("job %s failed terminally in the crash window: %+v", v.ID, v)
			}
		default:
			t.Fatalf("job %s in unexpected state after crash: %+v", v.ID, v)
		}
	}

	// Restart over the same journal. Quarantine/cache-hit accounting must
	// start from zero — replay rebuilds ledgers, it does not re-earn them.
	svc2 := newTestService(t, cfg, true)
	m2 := svc2.Metrics()
	if got := m2.JobsQuarantined.Load(); got != 0 {
		t.Fatalf("JobsQuarantined = %d after replay, want 0", got)
	}
	for _, view := range svc2.Jobs("") {
		j, ok := svc2.Job(view.ID)
		if !ok {
			t.Fatalf("listed job %s not found", view.ID)
		}
		waitDone(t, j)
		v := svc2.Snapshot(j)
		requireBaselineVerdict(t, baseline, v)
		if finished[v.Name] {
			// A job done before the crash replays only as a content-addressed
			// cache hit, never as a second execution.
			if !v.Cached {
				t.Fatalf("job %q finished pre-crash but was re-executed after restart", v.Name)
			}
		}
		finished[v.Name] = true
	}
	if len(finished) != n {
		t.Fatalf("lost jobs across restart: %d of %d accounted for", len(finished), n)
	}
	// Cache hits after restart come only from pre-crash completions whose
	// submit records were still pending: each counted at most once.
	if hits := m2.CacheHits.Load(); hits > uint64(n) {
		t.Fatalf("CacheHits = %d after replay, exceeds job count %d", hits, n)
	}
	// Expired-at-boot leases re-dispatch exactly once each.
	if exp, red := m2.ClusterLeasesExpired.Load(), m2.ClusterRedispatches.Load(); red < exp {
		t.Fatalf("expired %d leases but only %d redispatches", exp, red)
	}
}
