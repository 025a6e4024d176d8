// Package paramring's top-level benchmarks regenerate the cost-shaped
// claims of the paper, one benchmark family per experiment of DESIGN.md:
//
//	BenchmarkFigure1RCGBuild        — F1: building the matching RCG
//	BenchmarkFigure2DeadlockCheck   — F2/F3: Theorem 4.2 over local deadlocks
//	BenchmarkFigure3RingSizes       — F3: per-K deadlock prediction from the RCG
//	BenchmarkFigure4LTGBuild        — F4: building the LTG
//	BenchmarkFigure5Precedence      — F5: precedence DAG + linear extensions
//	BenchmarkFigure8TrailSearch     — F8: Theorem 5.14 trail search
//	BenchmarkFigure9to12Synthesis   — F9-F12: the Section 6 methodology
//	BenchmarkTable1LocalVsGlobal    — T1: the headline local-vs-global sweep
//	BenchmarkTable4GlobalSynthesis  — T4: the STSyn-style baseline
//	BenchmarkSimulation             — T3: scheduler-driven runs
//
// The shape to observe: every Local* benchmark is independent of K (a few
// microseconds on a 9- or 27-state local space), while Global/K=n grows as
// domain^n — the paper's "significant improvement in time/space complexity".
package paramring

import (
	"fmt"
	"math/rand"
	"testing"

	"paramring/internal/explicit"
	"paramring/internal/ltg"
	"paramring/internal/protocols"
	"paramring/internal/rcg"
	"paramring/internal/sim"
	"paramring/internal/synthesis"
)

func BenchmarkFigure1RCGBuild(b *testing.B) {
	sys := protocols.MatchingStateSpace().Compile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rcg.Build(sys)
	}
}

func BenchmarkFigure2DeadlockCheck(b *testing.B) {
	for _, name := range []string{"matchingA", "matchingB"} {
		p := protocols.All()[name]
		b.Run(name, func(b *testing.B) {
			sys := p.Compile()
			r := rcg.Build(sys)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.CheckDeadlockFreedom(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure3RingSizes(b *testing.B) {
	r := rcg.Build(protocols.MatchingB().Compile())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.DeadlockRingSizes(2, 16)
	}
}

func BenchmarkFigure4LTGBuild(b *testing.B) {
	sys := protocols.MatchingA().Compile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ltg.Build(sys)
	}
}

func BenchmarkFigure5Precedence(b *testing.B) {
	procs := []int{1, 0, 2, 3, 1, 0, 2, 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dag := ltg.DependencyDAG(4, procs)
		if _, err := ltg.LinearExtensions(dag, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8TrailSearch(b *testing.B) {
	for _, name := range []string{"gouda-acharya", "agreement-both", "sum-not-two-ss"} {
		p := protocols.All()[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ltg.CheckLivelockFreedom(p, ltg.CheckOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure9to12Synthesis(b *testing.B) {
	for _, name := range []string{"agreement", "coloring2", "coloring3", "sum-not-two"} {
		p := protocols.All()[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// coloring declares failure by design; both outcomes count.
				_, _ = synthesis.Synthesize(p, synthesis.Options{All: true})
			}
		})
	}
}

// BenchmarkTable1LocalVsGlobal is the headline: the Local sub-benchmarks do
// a complete all-K verification on the 9-state local space; the Global/K=n
// ones model-check one instance exhaustively and scale as 3^n. The Global
// side runs the engine twice — seq pins the explicit checker to one worker,
// par follows GOMAXPROCS — so `-cpu 1,2,4,8` shows the parallel scaling
// shape on top of the exponential sweep. The instances run under the
// engine's default state ceiling (1<<28 with the packed-bitset tables, up
// from the 1<<24 the old []bool layout forced), and each seq/K row reports
// the resident table bytes so the 1-bit-per-state cost is visible in the
// benchmark output.
func BenchmarkTable1LocalVsGlobal(b *testing.B) {
	p := protocols.SumNotTwoSolution()
	b.Run("Local/all-K", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := p.Compile()
			if _, err := rcg.Build(sys).CheckDeadlockFreedom(0); err != nil {
				b.Fatal(err)
			}
			if _, err := ltg.CheckLivelockFreedom(p, ltg.CheckOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, k := range []int{4, 6, 8, 10, 12, 14} {
		b.Run(fmt.Sprintf("Global/seq/K=%d", k), func(b *testing.B) {
			in, err := explicit.NewInstance(p, k, explicit.WithWorkers(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(in.TableBytes())/float64(in.NumStates()), "table-B/state")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !in.CheckStrongConvergence().Converges {
					b.Fatal("unexpected verdict")
				}
			}
		})
		b.Run(fmt.Sprintf("Global/par/K=%d", k), func(b *testing.B) {
			in, err := explicit.NewInstance(p, k)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !in.CheckStrongConvergence().Converges {
					b.Fatal("unexpected verdict")
				}
			}
		})
	}
	// The same sweep for matching A (27 local states, bidirectional).
	ma := protocols.MatchingA()
	b.Run("Local/matchingA", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := ma.Compile()
			if _, err := rcg.Build(sys).CheckDeadlockFreedom(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, k := range []int{4, 6, 8} {
		for _, mode := range []struct {
			name string
			opts []explicit.Option
		}{
			{"seq", []explicit.Option{explicit.WithWorkers(1)}},
			{"par", nil},
		} {
			b.Run(fmt.Sprintf("Global/%s/matchingA/K=%d", mode.name, k), func(b *testing.B) {
				in, err := explicit.NewInstance(ma, k, mode.opts...)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if got := in.IllegitimateDeadlocks(); len(got) != 0 {
						b.Fatal("unexpected deadlock")
					}
				}
			})
		}
	}
}

func BenchmarkTable4GlobalSynthesis(b *testing.B) {
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
		p := protocols.All()[tc.name]
		for _, mode := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {"par", 0}} {
			b.Run(fmt.Sprintf("%s/%s/K=%d", mode.name, tc.name, tc.k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := explicit.SynthesizeGlobalWorkers(p, tc.k, 0, mode.workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkSimulation(b *testing.B) {
	in, err := explicit.NewInstance(protocols.SumNotTwoSolution(), 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := sim.Run(in, sim.RandomState(in, rng), sim.Random{}, rng, sim.Options{MaxSteps: 10000})
		if !res.Converged {
			b.Fatal("must converge")
		}
	}
}

func BenchmarkExplicitLivelockDetection(b *testing.B) {
	for _, k := range []int{5, 7, 9} {
		b.Run(fmt.Sprintf("gouda-acharya/K=%d", k), func(b *testing.B) {
			in, err := explicit.NewInstance(protocols.GoudaAcharya(), k)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if in.FindLivelock() == nil {
					b.Fatal("livelock expected")
				}
			}
		})
	}
}
