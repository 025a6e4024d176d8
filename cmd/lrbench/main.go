// Command lrbench runs the repository's deterministic benchmark suites and
// gates performance regressions against committed baselines.
//
// Measure a suite and write its snapshot:
//
//	lrbench -suite verify -o BENCH_verify.json
//	lrbench -suite synth -o BENCH_synth.json -benchtime 200ms
//	lrbench -suite verify -smoke            # one iteration per metric, no -o
//
// Compare a fresh snapshot against a committed baseline:
//
//	lrbench -compare BENCH_verify.json new.json
//	lrbench -compare -threshold 0.25 BENCH_verify.json new.json
//
// Compare prints a worst-first ratio table and exits 0 when the geometric
// mean of the ns/op ratios is within the threshold, 1 when it regressed
// (strictly above 1+threshold), and 2 on usage or snapshot errors — so CI
// can fail a PR on the exit code alone. A metric present in only one
// snapshot, or carrying a zero/negative ns/op, is a broken comparison, not
// a warning: the gate would silently measure a different grid than the
// committed baseline describes, so lrbench prints one "error:" line per
// broken metric and exits 2. Regenerate the baseline when the grid
// legitimately changes. PERFORMANCE.md documents the workflow, the
// committed baselines, and how thresholds were chosen.
//
// Compare can also gate the opposite direction — demanding an improvement
// rather than bounding a regression:
//
//	lrbench -compare -group table1/global -min-speedup 1.5 old.json new.json
//
// -group restricts both snapshots to the metrics whose name starts with the
// prefix (so a frozen pre-optimization baseline stays usable after the rest
// of the grid grows rows), and -min-speedup exits 1 unless the group's
// geomean speedup (1/geomean ratio — for fixed-work rows, exactly the
// geomean states/sec improvement) reaches the given factor. A PR that
// claims a performance step-change commits its pre-change baseline and
// gates on it once; the gate is then dropped and the ordinary regression
// thresholds keep the win.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"paramring/internal/bench"
	"paramring/internal/cli"
)

func main() {
	defer cli.ExitOnPanic("lrbench")
	suite := flag.String("suite", "", "suite to run: verify | synth")
	out := flag.String("o", "", "write the snapshot JSON to this path (default: stdout)")
	benchtime := flag.Duration("benchtime", 100*time.Millisecond, "per-metric time budget")
	maxK := flag.Int("max-k", 12, "largest Table-1 global ring size (verify suite)")
	smoke := flag.Bool("smoke", false, "single iteration per metric (grid sanity check; not a comparable baseline)")
	compare := flag.Bool("compare", false, "compare two snapshots: lrbench -compare old.json new.json")
	threshold := flag.Float64("threshold", bench.DefaultThreshold, "geomean regression gate for -compare (0.10 = fail above a 10% mean slowdown)")
	group := flag.String("group", "", "for -compare: restrict both snapshots to metrics whose name starts with this prefix")
	minSpeedup := flag.Float64("min-speedup", 0, "for -compare: exit 1 unless the (group-filtered) geomean speedup over the baseline reaches this factor")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			cli.Exit("lrbench", 2, fmt.Errorf("-compare needs exactly two snapshot paths, got %d", flag.NArg()))
		}
		old, err := bench.ReadSnapshot(flag.Arg(0))
		if err != nil {
			cli.Exit("lrbench", 2, err)
		}
		cur, err := bench.ReadSnapshot(flag.Arg(1))
		if err != nil {
			cli.Exit("lrbench", 2, err)
		}
		if *group != "" {
			old = old.Filter(*group)
			cur = cur.Filter(*group)
			if len(old.Metrics) == 0 || len(cur.Metrics) == 0 {
				cli.Exit("lrbench", 2, fmt.Errorf(
					"-group %q matches %d baseline and %d new metric(s); nothing to gate",
					*group, len(old.Metrics), len(cur.Metrics)))
			}
		}
		c, err := bench.Compare(old, cur, *threshold)
		if err != nil {
			cli.Exit("lrbench", 2, err)
		}
		c.Format(os.Stdout)
		if len(c.Broken) > 0 {
			// The table above carries one "error:" line per broken metric.
			cli.Exit("lrbench", 2, fmt.Errorf(
				"comparison broken: %d metric(s) missing or non-positive; regenerate the baseline if the grid changed",
				len(c.Broken)))
		}
		if *minSpeedup > 0 {
			speedup := c.Speedup()
			verdict := "ok"
			if speedup < *minSpeedup {
				verdict = "BELOW TARGET"
			}
			fmt.Printf("speedup %.3fx (required %.2fx): %s\n", speedup, *minSpeedup, verdict)
			if speedup < *minSpeedup {
				os.Exit(1)
			}
		}
		if c.Regressed {
			os.Exit(1)
		}
		return
	}

	if *suite == "" {
		cli.Exit("lrbench", 2, fmt.Errorf("specify -suite %v or -compare old.json new.json", bench.Suites))
	}
	snap, err := bench.Run(*suite, bench.Config{Benchtime: *benchtime, MaxK: *maxK, Smoke: *smoke})
	if err != nil {
		cli.Exit("lrbench", 1, err)
	}
	for _, m := range snap.Metrics {
		fmt.Fprintf(os.Stderr, "%-48s %14.0f ns/op %10.0f allocs/op (n=%d)\n",
			m.Name, m.NsPerOp, m.AllocsPerOp, m.N)
	}
	if *out == "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			cli.Exit("lrbench", 1, err)
		}
		fmt.Println(string(data))
		return
	}
	if err := snap.WriteFile(*out); err != nil {
		cli.Exit("lrbench", 1, err)
	}
	fmt.Fprintf(os.Stderr, "lrbench: wrote %s (%d metrics)\n", *out, len(snap.Metrics))
}
