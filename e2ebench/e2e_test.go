package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paramring/internal/corpus"
	"paramring/internal/dsl"
	"paramring/internal/protocols"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {3, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The chosen percentile leaves at least minBeyond samples above it.
	for n := 20; n <= 3000; n++ {
		if p := tailPercentile(n); n-rankIndex(p, n)-1 < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond", n, p, n-rankIndex(p, n)-1)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each xs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// doneJob is a minimal successful lrserved response.
var doneJob = []byte(`{"id":"job-1","state":"done","result":{"deadlock":"proved","livelock":"proved","self_stabilizing":true}}`)

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var once sync.Once
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The first request holds the server for the stall; every request
		// due meanwhile waits behind it.
		mu.Lock()
		once.Do(func() { time.Sleep(stall) })
		mu.Unlock()
		w.Write(doneJob)
	}))
	defer srv.Close()

	// Requests every 10 ms until well after the stall ends.
	const n = 40
	reqs := make([]request, n)
	schedule := make([]time.Duration, n)
	for i := range reqs {
		reqs[i] = request{body: []byte("{}"), ids: []int{0}}
		schedule[i] = time.Duration(i) * 10 * time.Millisecond
	}
	c := newClient(srv.URL, newAnswers(1), false)
	defer c.close()
	out, _ := c.openLoop(reqs, schedule)
	for i, s := range out {
		if s.failed != 0 {
			t.Fatalf("request %d failed (HTTP %d)", i, s.status)
		}
		// A request due during the stall is answered only after it, and its
		// latency counts from when it was due, not from when it got a
		// connection.
		if due := schedule[i]; due < stall-20*time.Millisecond {
			if least := stall - due - 5*time.Millisecond; s.latency < least {
				t.Errorf("request %d due at %v: latency %v, want at least %v", i, due, s.latency, least)
			}
		}
	}
	if out[n-1].latency > 100*time.Millisecond {
		t.Errorf("request due after the stall took %v", out[n-1].latency)
	}
}

func TestServiceUnavailableIsAFailureAndNotRetried(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"queue full"}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL, newAnswers(1), false)
	defer c.close()
	s := c.do(&request{body: []byte("{}"), ids: []int{0}}, time.Now())
	if s.status != http.StatusServiceUnavailable || s.failed != 1 {
		t.Fatalf("got status %d, failed %d; want 503 counted as one failure", s.status, s.failed)
	}
	if h := hits.Load(); h != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retry)", h)
	}
}

func TestAnswersDisagreeingWithEarlierCountAsMismatch(t *testing.T) {
	a := newAnswers(1)
	if !a.note(0, &verdict{Deadlock: "proved", Livelock: "proved"}) ||
		!a.note(0, &verdict{Deadlock: "proved", Livelock: "proved"}) {
		t.Fatal("equal answers reported as a mismatch")
	}
	if a.note(0, &verdict{Deadlock: "proved", Livelock: "refuted"}) || a.mismatches != 1 {
		t.Fatal("a changed answer was not counted")
	}
}

func mustRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// streamBytes flattens a workload's inputs into the exact bytes it sends.
func streamBytes(in *inputs) []byte {
	var b bytes.Buffer
	for _, phase := range [][]request{in.warm, in.reqs} {
		for _, r := range phase {
			b.Write(r.body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	root := mustRoot(t)
	for _, w := range workloads() {
		gen := func(seed int64) []byte {
			in, err := w.inputs(root, seed, 20)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			return streamBytes(in)
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different input streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same input stream", w.name)
		}
	}
}

func familyKey(t *testing.T, src string) string {
	t.Helper()
	p, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return corpus.FamilyKey(p)
}

func TestColdSpecsAndBatchesEachHaveTheirOwnFamily(t *testing.T) {
	cold, err := coldInputs(1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range cold.specs {
		k := familyKey(t, s.source)
		if seen[k] {
			t.Fatalf("cold-durable: %s repeats family %s", s.name, k)
		}
		seen[k] = true
	}

	batch, err := batchInputs(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	seen = map[string]bool{}
	for _, r := range batch.reqs {
		k := familyKey(t, batch.specs[r.ids[0]].source)
		for _, id := range r.ids[1:] {
			if got := familyKey(t, batch.specs[id].source); got != k {
				t.Fatalf("batch-cluster: %s is in family %s, its batch in %s", batch.specs[id].name, got, k)
			}
		}
		if seen[k] {
			t.Fatalf("batch-cluster: two batches share family %s", k)
		}
		seen[k] = true
	}
}

func TestMatchingBIsTheZooProtocol(t *testing.T) {
	data, err := testdata.ReadFile("testdata/matchingB.gc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := dsl.Parse(string(data))
	if err != nil {
		t.Fatal(err)
	}
	got, want := p.Compile(), protocols.MatchingB().Compile()
	if !reflect.DeepEqual(got.Legit, want.Legit) || !reflect.DeepEqual(got.Succ, want.Succ) {
		t.Fatal("testdata/matchingB.gc does not compile to protocols.MatchingB's legitimacy and transitions")
	}
}

func TestBenchmarkJSONMatchesWorkloadsAndMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(mustRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) || len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the benchmark %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range endToEndMetrics {
		got := b.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || math.Abs(got.Bound-m.bound) > 1e-9 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, got, m)
		}
	}
	for i, m := range perLayerMetrics {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, got, m)
		}
	}
}

// TestSmoke runs every workload for about a second against a real
// lrserved and requires every verdict to pass the oracle.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs lrserved")
	}
	root := mustRoot(t)
	dir := t.TempDir()
	bin, err := buildServer(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	e := env{root: root, dir: dir, bin: bin, seed: 2, secs: 1}
	for _, w := range workloads() {
		r, err := runWorkload(e, w, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.correct || r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: correct %t, %d of %d failed; notes: %v", w.name, r.correct, r.failed, r.attempted, r.notes)
		}
		for _, m := range endToEndMetrics {
			if v := r.metrics[m.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", w.name, m.name, v)
			}
		}
	}

	// A traced run reports every per-layer metric and writes its spans.
	e.spans = filepath.Join(dir, "spans.jsonl")
	w, _ := findWorkload("cold-durable")
	r, err := runWorkload(e, w, true)
	if err != nil {
		t.Fatalf("traced %s: %v", w.name, err)
	}
	if !r.correct || r.failed != 0 {
		t.Errorf("traced %s: correct %t, %d of %d failed; notes: %v", w.name, r.correct, r.failed, r.attempted, r.notes)
	}
	for _, m := range perLayerMetrics {
		if _, ok := r.metrics[m.name]; !ok {
			t.Errorf("traced %s: no %s", w.name, m.name)
		}
	}
	if fi, err := os.Stat(e.spans); err != nil || fi.Size() == 0 {
		t.Errorf("traced %s: span file %s missing or empty (%v)", w.name, e.spans, err)
	}
}
