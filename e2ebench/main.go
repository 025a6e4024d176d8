// Command e2e is the repository's end-to-end benchmark: spec text in,
// checked verdict out, through a real lrserved process over loopback HTTP.
//
// It builds ./cmd/lrserved, starts it with a fresh -cache-dir per run,
// drives one of four workloads generated from -seed, prints every
// end-to-end metric with its unit, and checks every verdict against
// repeated answers, the paper's verdicts, the explicit engine and a
// seed-1 golden digest. A traced run (-trace 1) adds per-layer metrics
// from a traced pass and an in-process replay. See README.md.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload cold-durable --seed 1 --seconds 15 --trace 0
//	cd e2ebench && go run . -seed 1            # all four workloads
//	cd e2ebench && go run . -runs 5            # repeatability: median and quartiles
//
// With -workload set, the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 when
// every verdict checked out, 1 on any verdict mismatch, 2 on a usage or
// set-up error (no JSON is printed then).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEndMetrics are measured with tracing off, on the closed loop of an
// untraced run. Bounds are the share by which a median may worsen before it
// counts as a regression; README.md records the spread each was set from.
// The failure ratio is not among them: it is 0 on every correct run, and
// the result line carries it as failed/attempted.
var endToEndMetrics = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"throughput_specs_per_s", "specs/s", "higher", 0.25},
	{"cpu_ms_per_spec", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics come from a traced run (-trace 1). README.md maps each to
// the end-to-end metric and workload it should move.
var perLayerMetrics = []metricDef{
	{name: "service.front_us_p50", unit: "us", better: "lower"},
	{name: "service.result_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "service.spec_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "service.queue_wait_ms_p50", unit: "ms", better: "lower"},
	{name: "service.queue_wait_ms_p99", unit: "ms", better: "lower"},
	{name: "service.queued_max", unit: "count", better: "lower"},
	{name: "service.run_ms_p50", unit: "ms", better: "lower"},
	{name: "service.compile_us_mean", unit: "us", better: "lower"},
	{name: "service.submit_ms_p50", unit: "ms", better: "lower"},
	{name: "service.finish_ms_p50", unit: "ms", better: "lower"},
	{name: "service.rejected_503", unit: "count", better: "lower"},
	{name: "service.jobs_failed", unit: "count", better: "lower"},
	{name: "service.jobs_retried", unit: "count", better: "lower"},
	{name: "service.journal_errors", unit: "count", better: "lower"},
	{name: "service.cache_write_errors", unit: "count", better: "lower"},
	{name: "cluster.leases_granted", unit: "count", better: "lower"},
	{name: "cluster.leases_expired", unit: "count", better: "lower"},
	{name: "cluster.redispatches", unit: "count", better: "lower"},
	{name: "cluster.late_results", unit: "count", better: "lower"},
	{name: "corpus.family_memo_hit_ratio", unit: "ratio", better: "higher"},
	{name: "verify.check_ms_p50", unit: "ms", better: "lower"},
	{name: "verify.check_ms_total", unit: "ms", better: "lower"},
	{name: "verify.self_ms_total", unit: "ms", better: "lower"},
	{name: "dsl.compile_us_p50", unit: "us", better: "lower"},
	{name: "rcg.theorem42_us_p50", unit: "us", better: "lower"},
	{name: "rcg.total_ms", unit: "ms", better: "lower"},
	{name: "ltg.theorem514_us_p50", unit: "us", better: "lower"},
	{name: "ltg.total_ms", unit: "ms", better: "lower"},
	{name: "invariant.analyze_ms_p50", unit: "ms", better: "lower"},
	{name: "invariant.analyze_ms_p90", unit: "ms", better: "lower"},
	{name: "invariant.total_ms", unit: "ms", better: "lower"},
	{name: "invariant.recheck_ms_total", unit: "ms", better: "lower"},
	{name: "invariant.cert_bytes_mean", unit: "bytes", better: "lower"},
	{name: "explicit.xval_ms_total", unit: "ms", better: "lower"},
	{name: "explicit.states_per_s", unit: "states/s", better: "higher"},
	{name: "explicit.peak_table_bytes", unit: "bytes", better: "lower"},
	{name: "gen.lag_us_p50", unit: "us", better: "lower"},
	{name: "gen.lag_us_p99", unit: "us", better: "lower"},
	{name: "gen.open_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "gen.open_latency_tail_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// numSenders is the number of load-generator connections: one per CPU, so
// the generator never outnumbers the cores it shares with lrserved.
func numSenders() int { return runtime.NumCPU() }

// findRoot walks up from the working directory to the repository root,
// the directory holding go.mod and cmd/lrserved.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "lrserved", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory with go.mod and cmd/lrserved) above the working directory")
		}
		dir = parent
	}
}

// fsName names the filesystem holding path (for the environment header).
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

func kernel() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

func main() {
	workloadFlag := flag.String("workload", "", "workload to run (hot-resubmit, cold-durable, invariant-lp, batch-cluster); empty runs all four")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "run length: the timed phases are sized to take about this long")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	spans := flag.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>-seed<seed>.jsonl)")
	runs := flag.Int("runs", 1, "repeat the set with seeds seed..seed+runs-1 and print the median and quartiles of every metric")
	update := flag.Bool("update-golden", false, "with -seed 1, rewrite testdata/golden-seed1.json from this run's verdicts")
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 || *runs < 1 {
		fatal(errors.New("-seconds must be positive and -runs at least 1"))
	}
	var selected []workload
	if *workloadFlag == "" {
		selected = workloads()
	} else if w, ok := findWorkload(*workloadFlag); ok {
		selected = []workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
	}
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	e := env{root: root, dir: filepath.Join(root, ".bench_build"), seed: *seed, secs: *seconds, spans: *spans, update: *update}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("# env: nproc=%d GOMAXPROCS=%d %s kernel=%s cache-fs=%s senders=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel(), fsName(e.dir), numSenders())
	bin, err := buildServer(root, e.dir)
	if err != nil {
		fatal(err)
	}
	e.bin = bin

	var all []*result
	for run := 0; run < *runs; run++ {
		e.seed = *seed + int64(run)
		for _, w := range selected {
			r, err := runWorkload(e, w, *trace == 1)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			printResult(r, e, *trace == 1)
			all = append(all, r)
		}
	}
	if *runs > 1 {
		printRepeatability(all, *trace == 1)
	}
	correct := true
	for _, r := range all {
		correct = correct && r.correct
	}
	if *workloadFlag != "" && *runs == 1 {
		printJSON(all[0], *trace == 1)
	}
	if !correct {
		os.Exit(1)
	}
}

func selectedMetrics(traced bool) []metricDef {
	if traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

func printResult(r *result, e env, traced bool) {
	fmt.Printf("== %s seed=%d seconds=%g trace=%t: attempted %d, failed %d, fail_ratio %g, correct %t\n",
		r.workload, e.seed, e.secs, traced, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)), r.correct)
	for _, m := range selectedMetrics(traced) {
		v := r.metrics[m.name]
		fmt.Printf("   %-34s %14.4f %s\n", m.name, v.Value, v.Unit)
	}
	for _, n := range r.notes {
		fmt.Printf("   # %s\n", n)
	}
}

// printJSON prints the result line the benchmark contract reads.
func printJSON(r *result, traced bool) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]metric{}}
	for _, m := range selectedMetrics(traced) {
		out.Metrics[m.name] = r.metrics[m.name]
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
}

// printRepeatability prints, for every (workload, metric), the median and
// quartiles over the runs and the spread (q3-q1)/median that the bounds
// in BENCHMARK.json are judged against.
func printRepeatability(all []*result, traced bool) {
	byWorkload := map[string][]*result{}
	var names []string
	for _, r := range all {
		if _, ok := byWorkload[r.workload]; !ok {
			names = append(names, r.workload)
		}
		byWorkload[r.workload] = append(byWorkload[r.workload], r)
	}
	fmt.Println("== repeatability: median [q1, q3] spread over", len(byWorkload[names[0]]), "runs")
	for _, name := range names {
		rs := byWorkload[name]
		for _, m := range selectedMetrics(traced) {
			xs := make([]float64, len(rs))
			for i, r := range rs {
				xs[i] = r.metrics[m.name].Value
			}
			q1, med, q3 := quartiles(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			flag := ""
			if m.bound > 0 && m.name != "setup_s" && spread > m.bound/3 {
				flag = "  <- above a third of the bound"
			}
			fmt.Printf("   %-14s %-34s %12.4f [%12.4f, %12.4f] %6.1f%%%s\n", name, m.name, med, q1, q3, 100*spread, flag)
		}
	}
}
