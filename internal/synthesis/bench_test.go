package synthesis

import (
	"runtime"
	"testing"

	"paramring/internal/core"
	"paramring/internal/protocols"
)

func BenchmarkSynthesizeFirst(b *testing.B) {
	for _, name := range []string{"agreement", "sum-not-two"} {
		p := protocols.All()[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Synthesize(p, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSynthesizeAll(b *testing.B) {
	for _, name := range []string{"agreement", "coloring3", "sum-not-two"} {
		p := protocols.All()[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = Synthesize(p, Options{All: true}) // coloring3 fails by design
			}
		})
	}
}

// The seq-vs-par engine comparison: every case runs the reference flat
// enumeration, the sequential branch-and-bound walk, and the parallel walk —
// all three produce the identical Result; the benchmark measures what pruning
// and workers buy.
type synthBenchCase struct {
	name string
	p    *core.Protocol
}

type synthBenchMode struct {
	name string
	opts Options
}

func synthBenchCases() []synthBenchCase {
	return []synthBenchCase{
		{"agreement", protocols.AgreementBase()},
		{"sum-not-two", protocols.SumNotTwoBase()},
		{"coloring3", protocols.Coloring(3)},
		{"coloring4", protocols.Coloring(4)},
	}
}

func synthBenchModes() []synthBenchMode {
	// On a single-CPU host GOMAXPROCS is 1; floor the parallel mode at 2 so it
	// always exercises the multi-worker path (the result is identical anyway).
	return []synthBenchMode{
		{"flat", Options{All: true, Flat: true}},
		{"seq", Options{All: true}},
		{"par", Options{All: true, Workers: max(2, runtime.GOMAXPROCS(0))}},
	}
}

func BenchmarkSynthesize(b *testing.B) {
	for _, c := range synthBenchCases() {
		for _, m := range synthBenchModes() {
			b.Run(c.name+"/"+m.name, func(b *testing.B) {
				b.ReportAllocs()
				var st SearchStats
				for i := 0; i < b.N; i++ {
					res, _ := Synthesize(c.p, m.opts) // the colorings fail by design
					if res != nil {
						st = res.Stats
					}
				}
				b.ReportMetric(float64(st.Candidates), "candidates/op")
				b.ReportMetric(float64(st.Evaluated), "evaluated/op")
			})
		}
	}
}

// The BENCH_synth.json artifact this grid used to write via an env-gated
// test is now produced by `make bench-synth` -> cmd/lrbench, whose
// internal/bench suite mirrors synthBenchCases/synthBenchModes and whose
// snapshots are regression-gated against the committed baseline (see
// PERFORMANCE.md).
