package explicit

import (
	"fmt"
	"testing"

	"paramring/internal/protocols"
)

func BenchmarkInstanceConstruction(b *testing.B) {
	p := protocols.SumNotTwoSolution()
	for _, k := range []int{6, 9, 12} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewInstance(p, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSuccessors is the successor-generation grid across the three
// engine paths: the compiled flat-table fast path on a symmetric instance
// (random access, rolling window-code fill), the symbolic guard-evaluation
// path forced by a distinguished process over the same protocol, and the
// odometer-driven whole-space scan (SuccessorSweep — no decode or encode at
// all in steady state). Each sub-benchmark reports states/sec so the grid
// reads directly against the lrbench scanloop rows and PERFORMANCE.md's
// scan-loop table.
func BenchmarkSuccessors(b *testing.B) {
	ma := protocols.MatchingA()
	grid := []struct {
		name string
		mk   func() *Instance
		op   func(in *Instance, i int) uint64
	}{
		{"fast/matchingA/K=8", func() *Instance {
			return MustNewInstance(ma, 8)
		}, func(in *Instance, i int) uint64 {
			return uint64(len(in.Successors(uint64(i) % in.NumStates())))
		}},
		{"symbolic/matchingA/K=8", func() *Instance {
			// The same actions pinned at position 0 break symmetry without
			// changing behavior, forcing the guard-evaluation path.
			return MustNewInstance(ma, 8, WithProcessActions(0, ma.Actions()))
		}, func(in *Instance, i int) uint64 {
			return uint64(len(in.Successors(uint64(i) % in.NumStates())))
		}},
		{"scan/matchingA/K=8", func() *Instance {
			return MustNewInstance(ma, 8, WithWorkers(1))
		}, func(in *Instance, i int) uint64 {
			return in.SuccessorSweep()
		}},
	}
	for _, g := range grid {
		b.Run(g.name, func(b *testing.B) {
			in := g.mk()
			b.ReportAllocs()
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += g.op(in, i)
			}
			statesPerOp := 1.0
			if g.name[:4] == "scan" {
				statesPerOp = float64(in.NumStates())
			}
			b.ReportMetric(statesPerOp*float64(b.N)/b.Elapsed().Seconds(), "states/sec")
			benchSink = sink
		})
	}
}

// benchSink defeats dead-code elimination of the measured loops.
var benchSink uint64

// BenchmarkStrongConvergence compares one worker against GOMAXPROCS
// workers; run with -cpu 1,2,4,8 to see the scaling shape (the seq side
// pins WithWorkers(1), one inline chunk per scan, the par side follows
// GOMAXPROCS).
func BenchmarkStrongConvergence(b *testing.B) {
	p := protocols.AgreementOneSided("t01")
	for _, k := range []int{6, 10, 14} {
		b.Run(fmt.Sprintf("seq/K=%d", k), func(b *testing.B) {
			in := MustNewInstance(p, k, WithMaxStates(1<<25), WithWorkers(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !in.CheckStrongConvergence().Converges {
					b.Fatal("verdict changed")
				}
			}
		})
		b.Run(fmt.Sprintf("par/K=%d", k), func(b *testing.B) {
			in := MustNewInstance(p, k, WithMaxStates(1<<25))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !in.CheckStrongConvergence().Converges {
					b.Fatal("verdict changed")
				}
			}
		})
	}
}

// BenchmarkRaisedCeiling exercises the packed-bitset engine above the old
// 1<<24 state guard: 65^4 = 17,850,625 global states, a size the []bool
// layout refused outright. Construction dominates (one streamed fill of the
// 2.1 MiB I(K) bitset); the convergence check then finds the all-zeros
// illegitimate deadlock immediately, so one iteration stays around a
// second and the seq/par pair is cheap enough for a CI smoke run.
func BenchmarkRaisedCeiling(b *testing.B) {
	p := raisedCeilingProtocol()
	legit := func(vals []int) bool { return vals[0] == 64 }
	for _, mode := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in, err := NewInstance(p, 4, WithWorkers(mode.workers), WithGlobalPredicate(legit))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(in.TableBytes())/float64(in.NumStates()), "table-B/state")
				}
				rep := in.CheckStrongConvergence()
				if rep.Converges || rep.DeadlockWitness == nil || *rep.DeadlockWitness != 0 {
					b.Fatal("verdict changed at the raised ceiling")
				}
			}
		})
	}
}

// BenchmarkRecoveryRadiusParallel times the level-synchronous backward BFS
// at one worker (seq) and at GOMAXPROCS workers (par) on the same
// instance size.
func BenchmarkRecoveryRadiusParallel(b *testing.B) {
	for _, mode := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			in := MustNewInstance(protocols.SumNotTwoSolution(), 8, WithWorkers(mode.workers))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.RecoveryRadius()
			}
		})
	}
}

func BenchmarkRecoveryRadius(b *testing.B) {
	in := MustNewInstance(protocols.SumNotTwoSolution(), 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.RecoveryRadius()
	}
}

func BenchmarkSynthesizeGlobalBaseline(b *testing.B) {
	p := protocols.SumNotTwoBase()
	for _, k := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SynthesizeGlobal(p, k, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
