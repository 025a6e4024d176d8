package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"paramring/internal/core"
	"paramring/internal/dsl"
	"paramring/internal/explicit"
	"paramring/internal/invariant"
	"paramring/internal/ltg"
	"paramring/internal/protocols"
	"paramring/internal/protogen"
	"paramring/internal/rcg"
	"paramring/internal/synthesis"
	"paramring/internal/verify"
)

// Config tunes a suite run.
type Config struct {
	// Benchtime is the per-metric time budget (default 100ms; <= 0 after
	// defaulting means single-iteration smoke mode — pass Smoke for that).
	Benchtime time.Duration
	// MaxK caps the ring sizes of the Table-1 global sweep (default 12;
	// the grid is 4, 6, ..., MaxK on the 3-value domain, so each step
	// multiplies the state space by 9).
	MaxK int
	// Smoke forces one iteration per metric regardless of Benchtime — the
	// CI setting that checks the grids still run without spending minutes
	// timing them. Smoke snapshots are NOT comparable baselines.
	Smoke bool
}

func (c Config) withDefaults() Config {
	if c.Benchtime == 0 {
		c.Benchtime = 100 * time.Millisecond
	}
	if c.MaxK <= 0 {
		c.MaxK = 12
	}
	if c.Smoke {
		c.Benchtime = 0
	}
	return c
}

// benchSpec is the DSL source the compiled-spec cache metrics compile: the
// Section 6.2 sum-not-two solution, same text as specs/sum-not-two.gc.
// Embedded so lrbench does not depend on its working directory.
const benchSpec = `# The paper's Section 6.2 sum-not-two solution.
protocol sum-not-two
domain 3
window -1 0
legit x[0] + x[-1] != 2

action up:   x[0] + x[-1] == 2 && x[0] != 2 -> x[0] := (x[0] + 1) % 3
action down: x[0] + x[-1] == 2 && x[0] == 2 -> x[0] := (x[0] - 1) % 3
`

// Suites names the suites Run understands.
var Suites = []string{"verify", "synth"}

// Run dispatches to the named suite.
func Run(suite string, cfg Config) (*Snapshot, error) {
	switch suite {
	case "verify":
		return VerifySuite(cfg)
	case "synth":
		return SynthSuite(cfg)
	default:
		return nil, fmt.Errorf("unknown suite %q (have: %v)", suite, Suites)
	}
}

// VerifySuite measures the verification side: the compiled-spec cache's
// cold-vs-hit compile latency (the service layer's repeat-submission win),
// the end-to-end verify.Check pipeline, and the Table-1 local-vs-global
// sweep with per-K state counts, resident table bytes and states/sec.
func VerifySuite(cfg Config) (*Snapshot, error) {
	cfg = cfg.withDefaults()
	s := NewSnapshot("verify", cfg.Benchtime)

	// Compiled-spec cache: cold compiles through a fresh cache each
	// iteration (parse + validate + table construction — what every
	// submission paid before the cache existed); hit resubmits the same
	// bytes to a warm cache (the alias index short-circuits even the
	// parse); hit-unaliased rotates the same warm cache through one more
	// formatting variant than an entry keeps aliases for, so every call
	// misses the alias index and pays a parse before the canonical lookup
	// hits. cold/hit is the cache's latency win on repeat submissions and
	// hit-unaliased/hit the alias index's; PERFORMANCE.md tracks both.
	s.Add("speccache/compile/cold", Measure(cfg.Benchtime, func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := verify.NewSpecCache(4).Compile(benchSpec); err != nil {
				panic(err)
			}
		}
	}), nil)
	warm := verify.NewSpecCache(4)
	if _, _, err := warm.Compile(benchSpec); err != nil {
		return nil, err
	}
	s.Add("speccache/compile/hit", Measure(cfg.Benchtime, func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := warm.Compile(benchSpec); err != nil {
				panic(err)
			}
		}
	}), nil)
	variants := make([]string, verify.SpecCacheAliasFactor+1)
	for i := range variants {
		variants[i] = fmt.Sprintf("# formatting variant %d\n%s", i, benchSpec)
	}
	next := 0 // the rotation continues across calibration rounds
	s.Add("speccache/compile/hit-unaliased", Measure(cfg.Benchtime, func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := warm.Compile(variants[next%len(variants)]); err != nil {
				panic(err)
			}
			next++
		}
	}), nil)

	// End-to-end verification of the sum-not-two solution with the service
	// defaults' shape: both local theorems plus explicit cross-validation.
	p := protocols.SumNotTwoSolution()
	vopts := verify.Options{CrossValidateMaxK: 6}
	s.Add("verify/check/sum-not-two", Measure(cfg.Benchtime, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := verify.Check(p, vopts); err != nil {
				panic(err)
			}
		}
	}), map[string]float64{
		"peak_table_bytes": float64(verify.EstimatePeakTableBytes(p, vopts)),
	})

	// The cold shape of the end-to-end benchmark's cold-durable and
	// batch-cluster workloads: a fresh d=4 window [-1,0] sweep member at 40%
	// and 70% moves, verified with the service's engine setting. On these
	// rows explicit cross-validation up to K=6 is most of the cost.
	coldOpts := verify.Options{CrossValidateMaxK: 6, Workers: 1}
	for _, pct := range []int{40, 70} {
		cp, err := coldSpec(pct)
		if err != nil {
			return nil, err
		}
		s.Add(fmt.Sprintf("verify/check/cold-d4-%d", pct), Measure(cfg.Benchtime, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := verify.Check(cp, coldOpts); err != nil {
					panic(err)
				}
			}
		}), map[string]float64{
			"peak_table_bytes": float64(verify.EstimatePeakTableBytes(cp, coldOpts)),
		})

		// Theorem 4.2 alone on the same shape: the verify path's call,
		// which keeps only the distinct bad-cycle lengths, and (at 40%)
		// lrverify's report, which copies and sorts up to 256 witness
		// cycles. Both walk the same cycles, capped at 256.
		sys := cp.Compile()
		_, lengths := rcg.Build(sys).BadCycleLengths(256)
		s.Add(fmt.Sprintf("theorem42/lengths/cold-d4-%d", pct), Measure(cfg.Benchtime, func(n int) {
			for i := 0; i < n; i++ {
				rcg.Build(sys).BadCycleLengths(256)
			}
		}), map[string]float64{"lengths": float64(len(lengths))})
		if pct == 40 {
			// The only error is the witness cap, which this shape reaches.
			dl, _ := rcg.Build(sys).CheckDeadlockFreedom(256)
			s.Add("theorem42/cycles/cold-d4-40", Measure(cfg.Benchtime, func(n int) {
				for i := 0; i < n; i++ {
					rcg.Build(sys).CheckDeadlockFreedom(256)
				}
			}), map[string]float64{"bad_cycles": float64(len(dl.BadCycles))})
		}
	}

	// Invariant lane: cold symbolic analysis (traps + deadlock ranking +
	// termination LP, parameterized in K) and the independent certificate
	// re-check that every Proved verdict pays. sum-not-two-ss is the cheap
	// shape (2 local transitions); matchingA drives the LP through ~650
	// pivots, so its two rows bound the lane's cost range. Like every row,
	// they count in the compare step's geomean gate.
	for _, ic := range []struct {
		name string
		p    *core.Protocol
	}{
		{"sum-not-two-ss", p},
		{"matchingA", protocols.MatchingA()},
	} {
		ip := ic.p
		irep, err := invariant.Analyze(context.Background(), ip, invariant.Options{})
		if err != nil {
			return nil, err
		}
		s.Add("invariant/analyze/"+ic.name, Measure(cfg.Benchtime, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := invariant.Analyze(context.Background(), ip, invariant.Options{}); err != nil {
					panic(err)
				}
			}
		}), map[string]float64{
			"invariants": float64(irep.InvariantCount),
			"cert_bytes": float64(irep.Certificate.Size()),
		})
		s.Add("invariant/recheck/"+ic.name, Measure(cfg.Benchtime, func(n int) {
			for i := 0; i < n; i++ {
				if err := invariant.CheckCertificate(ip, irep.Certificate); err != nil {
					panic(err)
				}
			}
		}), nil)
	}

	// Table 1, local side: the complete all-K verification (Theorem 4.2
	// over the RCG plus Theorem 5.14 over the LTG) — constant in K.
	s.Add("table1/local/sum-not-two", Measure(cfg.Benchtime, func(n int) {
		for i := 0; i < n; i++ {
			sys := p.Compile()
			if _, err := rcg.Build(sys).CheckDeadlockFreedom(0); err != nil {
				panic(err)
			}
			if _, err := ltg.CheckLivelockFreedom(p, ltg.CheckOptions{}); err != nil {
				panic(err)
			}
		}
	}), nil)

	// Table 1, global side: exhaustive model checking of one instance per
	// K, sequential and parallel engines — 3^K states.
	for k := 4; k <= cfg.MaxK; k += 2 {
		seq, err := explicit.NewInstance(p, k, explicit.WithWorkers(1))
		if err != nil {
			return nil, err
		}
		extra := map[string]float64{
			"states":      float64(seq.NumStates()),
			"table_bytes": float64(seq.TableBytes()),
		}
		r := Measure(cfg.Benchtime, func(n int) {
			for i := 0; i < n; i++ {
				if !seq.CheckStrongConvergenceSeq().Converges {
					panic("unexpected verdict")
				}
			}
		})
		extra["states_per_sec"] = statesPerSec(seq.NumStates(), r)
		s.Add(fmt.Sprintf("table1/global/seq/sum-not-two/K=%d", k), r, extra)

		par, err := explicit.NewInstance(p, k)
		if err != nil {
			return nil, err
		}
		r = Measure(cfg.Benchtime, func(n int) {
			for i := 0; i < n; i++ {
				if !par.CheckStrongConvergence().Converges {
					panic("unexpected verdict")
				}
			}
		})
		s.Add(fmt.Sprintf("table1/global/par/sum-not-two/K=%d", k), r, map[string]float64{
			"states":         float64(par.NumStates()),
			"states_per_sec": statesPerSec(par.NumStates(), r),
		})
	}

	// The bidirectional sweep: matching A has 27 local states and a 3-wide
	// window, so the global side grows as 3^K with a much larger constant.
	ma := protocols.MatchingA()
	s.Add("table1/local/matchingA", Measure(cfg.Benchtime, func(n int) {
		for i := 0; i < n; i++ {
			sys := ma.Compile()
			if _, err := rcg.Build(sys).CheckDeadlockFreedom(0); err != nil {
				panic(err)
			}
		}
	}), nil)
	for k := 4; k <= min(8, cfg.MaxK); k += 2 {
		for _, mode := range []struct {
			name string
			opts []explicit.Option
		}{
			{"seq", []explicit.Option{explicit.WithWorkers(1)}},
			{"par", nil},
		} {
			in, err := explicit.NewInstance(ma, k, mode.opts...)
			if err != nil {
				return nil, err
			}
			r := Measure(cfg.Benchtime, func(n int) {
				for i := 0; i < n; i++ {
					if got := in.IllegitimateDeadlocks(); len(got) != 0 {
						panic("unexpected deadlock")
					}
				}
			})
			s.Add(fmt.Sprintf("table1/global/%s/matchingA/K=%d", mode.name, k), r, map[string]float64{
				"states":         float64(in.NumStates()),
				"states_per_sec": statesPerSec(in.NumStates(), r),
			})
		}
	}

	// Scan-loop internals: the decomposition PERFORMANCE.md's scan-loop
	// section tracks. decode is the incremental odometer walk on its own
	// (valuation + window codes per state, the floor every whole-space pass
	// pays), successors adds flat-table successor generation on top, and
	// fullcheck is the complete sequential convergence check over the same
	// instance — so the three states/sec figures locate any regression
	// inside the scan loop rather than averaged over a whole check.
	sk := min(10, cfg.MaxK)
	scan, err := explicit.NewInstance(p, sk, explicit.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	for _, row := range []struct {
		name string
		op   func()
	}{
		{"decode", func() { scanSink += scan.DecodeSweep() }},
		{"successors", func() { scanSink += scan.SuccessorSweep() }},
		{"fullcheck", func() {
			if !scan.CheckStrongConvergenceSeq().Converges {
				panic("unexpected verdict")
			}
		}},
	} {
		op := row.op
		r := Measure(cfg.Benchtime, func(n int) {
			for i := 0; i < n; i++ {
				op()
			}
		})
		s.Add(fmt.Sprintf("scanloop/%s/sum-not-two/K=%d", row.name, sk), r, map[string]float64{
			"states":         float64(scan.NumStates()),
			"states_per_sec": statesPerSec(scan.NumStates(), r),
		})
	}
	// The 3-wide-window variant: matching A's 27 local-state table makes the
	// window-code maintenance (three digit incidences per position) the
	// interesting part of the sweep.
	mk := min(6, cfg.MaxK)
	mscan, err := explicit.NewInstance(ma, mk, explicit.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	r := Measure(cfg.Benchtime, func(n int) {
		for i := 0; i < n; i++ {
			scanSink += mscan.SuccessorSweep()
		}
	})
	s.Add(fmt.Sprintf("scanloop/successors/matchingA/K=%d", mk), r, map[string]float64{
		"states":         float64(mscan.NumStates()),
		"states_per_sec": statesPerSec(mscan.NumStates(), r),
	})
	return s, nil
}

// scanSink keeps the scan-loop sweep results observable so the measured
// loops cannot be optimized away.
var scanSink uint64

// coldSpec returns the first member of a fixed d=4 window [-1,0] sweep
// family with the given move percentage.
func coldSpec(movePercent int) (*core.Protocol, error) {
	sw := protogen.Sweep{Seed: 20120612, Families: []protogen.SweepFamily{{
		Name: fmt.Sprintf("cold%d", movePercent), Domain: 4, Lo: -1, Hi: 0,
		Variants: 1, MovePercent: movePercent,
	}}}
	specs, err := sw.Specs()
	if err != nil {
		return nil, err
	}
	return dsl.Parse(specs[1].Source) // specs[0] is the action-free family base
}

func statesPerSec(states uint64, r Result) float64 {
	if r.NsPerOp <= 0 {
		return 0
	}
	return float64(states) / (r.NsPerOp / 1e9)
}

// SynthSuite measures the synthesis side: the Section 6 search engine grid
// (flat enumeration vs sequential branch-and-bound vs parallel, per case
// study, with pruning and memoization counters) and the Table-4 STSyn-style
// global baseline.
func SynthSuite(cfg Config) (*Snapshot, error) {
	cfg = cfg.withDefaults()
	s := NewSnapshot("synth", cfg.Benchtime)
	zoo := protocols.All()

	// The search-engine grid: every case runs the reference flat
	// enumeration, the sequential branch-and-bound walk, and the parallel
	// walk; all three produce the identical Result (the engine's
	// determinism contract), so the timings isolate what pruning,
	// memoization and workers buy.
	modes := []struct {
		name string
		opts synthesis.Options
	}{
		{"flat", synthesis.Options{All: true, Flat: true, Workers: 1}},
		{"seq", synthesis.Options{All: true, Workers: 1}},
		// Floor the parallel mode at 2 workers so a single-CPU host still
		// exercises the multi-worker path.
		{"par", synthesis.Options{All: true, Workers: max(2, runtime.GOMAXPROCS(0))}},
	}
	synthCases := []struct {
		name string
		p    *core.Protocol
	}{
		{"agreement", protocols.AgreementBase()},
		{"sum-not-two", protocols.SumNotTwoBase()},
		{"coloring3", protocols.Coloring(3)},
		{"coloring4", protocols.Coloring(4)}, // not in the zoo; built directly
	}
	for _, c := range synthCases {
		name, base := c.name, c.p
		for _, m := range modes {
			var st synthesis.SearchStats
			r := Measure(cfg.Benchtime, func(n int) {
				for i := 0; i < n; i++ {
					res, _ := synthesis.Synthesize(base, m.opts) // the colorings fail by design
					if res != nil {
						st = res.Stats
					}
				}
			})
			extra := map[string]float64{
				"candidates":         float64(st.Candidates),
				"evaluated":          float64(st.Evaluated),
				"pruned_assignments": float64(st.PrunedAssignments),
			}
			if tot := st.MemoHits + st.MemoMisses; tot > 0 {
				extra["memo_hit_rate"] = float64(st.MemoHits) / float64(tot)
			}
			s.Add(fmt.Sprintf("synthesis/%s/%s", name, m.name), r, extra)
		}
	}

	// Table 4: the global STSyn-style baseline the local methodology is
	// compared against — exhaustive search over revised instances at one
	// concrete K.
	for _, tc := range []struct {
		name string
		k    int
	}{
		{"agreement", 3},
		{"agreement", 5},
		{"sum-not-two", 3},
		{"sum-not-two", 4},
		{"coloring3", 3},
	} {
		base := zoo[tc.name]
		for _, mode := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {"par", 0}} {
			s.Add(fmt.Sprintf("table4/global/%s/%s/K=%d", mode.name, tc.name, tc.k),
				Measure(cfg.Benchtime, func(n int) {
					for i := 0; i < n; i++ {
						if _, err := explicit.SynthesizeGlobalWorkers(base, tc.k, 0, mode.workers); err != nil {
							panic(err)
						}
					}
				}), nil)
		}
	}
	return s, nil
}
