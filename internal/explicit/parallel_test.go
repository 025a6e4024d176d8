package explicit

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"paramring/internal/core"
	"paramring/internal/protocols"
)

// statesCap keeps the property sweep affordable: protocols whose domain^K
// exceeds it at a given K are skipped for that K (the sweep still covers
// every zoo protocol at its smaller sizes).
const statesCap = 1 << 17

// zooNames returns the registered protocols in deterministic order.
func zooNames() []string {
	var names []string
	for name := range protocols.All() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sameWitness(a, b *uint64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

// TestParallelMatchesSequential is the engine's contract: for every zoo
// protocol and K in 4..10, one worker and four return identical verdicts
// AND identical witnesses — deadlocks, livelock cycles, weak convergence,
// recovery radii, closure — and both match the FIFO backward BFS of
// referenceDistances. Run under -race in CI (with -cpu variations) this
// doubles as the concurrency soundness suite.
func TestParallelMatchesSequential(t *testing.T) {
	for _, name := range zooNames() {
		p := protocols.All()[name]
		for k := 4; k <= 10; k++ {
			seq, err := NewInstance(p, k, WithWorkers(1), WithMaxStates(statesCap))
			if err != nil {
				continue // domain^K beyond the sweep cap at this K
			}
			par, err := NewInstance(p, k, WithWorkers(4), WithMaxStates(statesCap))
			if err != nil {
				t.Fatalf("%s K=%d: %v", name, k, err)
			}
			t.Run(fmt.Sprintf("%s/K=%d", name, k), func(t *testing.T) {
				if !reflect.DeepEqual(seq.inI, par.inI) {
					t.Fatal("parallel I(K) evaluation differs from sequential")
				}

				srep := seq.CheckStrongConvergence()
				prep := par.CheckStrongConvergence()
				if srep.Converges != prep.Converges {
					t.Fatalf("Converges: seq=%v par=%v", srep.Converges, prep.Converges)
				}
				if !sameWitness(srep.DeadlockWitness, prep.DeadlockWitness) {
					t.Fatalf("DeadlockWitness: seq=%v par=%v", srep.DeadlockWitness, prep.DeadlockWitness)
				}
				if !reflect.DeepEqual(srep.LivelockWitness, prep.LivelockWitness) {
					t.Fatalf("LivelockWitness: seq=%v par=%v", srep.LivelockWitness, prep.LivelockWitness)
				}
				if prep.LivelockWitness != nil && !par.IsLivelock(prep.LivelockWitness) {
					t.Fatal("parallel livelock witness does not validate")
				}
				if prep.StatesExplored != seq.NumStates() {
					t.Fatalf("StatesExplored = %d, want %d", prep.StatesExplored, seq.NumStates())
				}

				if !reflect.DeepEqual(seq.Deadlocks(), par.Deadlocks()) {
					t.Fatal("Deadlocks differ")
				}
				if !reflect.DeepEqual(seq.IllegitimateDeadlocks(), par.IllegitimateDeadlocks()) {
					t.Fatal("IllegitimateDeadlocks differ")
				}
				if sv, pv := seq.CheckClosure(), par.CheckClosure(); !reflect.DeepEqual(sv, pv) {
					t.Fatalf("CheckClosure: seq=%v par=%v", sv, pv)
				}

				// The backward-BFS surfaces are the heavy part; bound them.
				if seq.NumStates() <= 1<<13 {
					sok, sstuck := seq.CheckWeakConvergence()
					pok, pstuck := par.CheckWeakConvergence()
					if sok != pok || !reflect.DeepEqual(sstuck, pstuck) {
						t.Fatalf("CheckWeakConvergence: seq=(%v,%d states) par=(%v,%d states)",
							sok, len(sstuck), pok, len(pstuck))
					}
					smax, smean, sall := seq.RecoveryRadius()
					pmax, pmean, pall := par.RecoveryRadius()
					if smax != pmax || smean != pmean || sall != pall {
						t.Fatalf("RecoveryRadius: seq=(%d,%f,%v) par=(%d,%f,%v)",
							smax, smean, sall, pmax, pmean, pall)
					}
					ref := referenceDistances(seq)
					rmax, rmean, rall, rstuck := radiusOf(ref)
					if smax != rmax || smean != rmean || sall != rall || !reflect.DeepEqual(sstuck, rstuck) {
						t.Fatalf("one worker against the FIFO reference: RecoveryRadius (%d,%f,%v), reference (%d,%f,%v); %d stuck states, reference %d",
							smax, smean, sall, rmax, rmean, rall, len(sstuck), len(rstuck))
					}
					if !reflect.DeepEqual(seq.RecoveryDistances(), ref) || !reflect.DeepEqual(par.RecoveryDistances(), ref) {
						t.Fatal("RecoveryDistances differ from the FIFO reference")
					}
				}
			})
		}
	}
}

// referenceDistances is the FIFO backward BFS from I that RecoveryRadius
// ran at one worker before the level-synchronous BFS served every worker
// count: the reference TestParallelMatchesSequential checks
// RecoveryDistances, RecoveryRadius and CheckWeakConvergence against.
func referenceDistances(in *Instance) []int32 {
	dist := make([]int32, in.n)
	for i := range dist {
		dist[i] = -1
	}
	frontier := in.inI.AppendSetBits(nil, 0, in.n)
	for _, id := range frontier {
		dist[id] = 0
	}
	vals := make([]int, in.k)
	sc := in.newScratch()
	for head := 0; head < len(frontier); head++ {
		id := frontier[head]
		in.DecodeInto(id, vals)
		for r := 0; r < in.k; r++ {
			orig := vals[r]
			for ov := 0; ov < in.d; ov++ {
				if ov == orig {
					continue
				}
				vals[r] = ov
				pred := in.Encode(vals)
				vals[r] = orig
				if dist[pred] >= 0 {
					continue
				}
				if in.hasTransitionScratch(pred, id, sc) {
					dist[pred] = dist[id] + 1
					frontier = append(frontier, pred)
				}
			}
		}
	}
	return dist
}

// radiusOf derives RecoveryRadius's figures and CheckWeakConvergence's
// stuck states from a distance array.
func radiusOf(dist []int32) (radius int, mean float64, allReach bool, stuck []uint64) {
	var sum, cnt uint64
	for id, d := range dist {
		if d < 0 {
			stuck = append(stuck, uint64(id))
			continue
		}
		radius = max(radius, int(d))
		sum += uint64(d)
		cnt++
	}
	if cnt > 0 {
		mean = float64(sum) / float64(cnt)
	}
	return radius, mean, len(stuck) == 0, stuck
}

// TestParallelWorkerCountsAgree varies the worker count (including an odd
// one and more workers than meaningful chunks) on a protocol with real
// livelocks, pinning down that chunk-boundary arithmetic never changes the
// answer.
func TestParallelWorkerCountsAgree(t *testing.T) {
	p := protocols.GoudaAcharya()
	for _, k := range []int{5, 6, 7} {
		ref := mustInstance(t, p, k, WithWorkers(1)).CheckStrongConvergence()
		for _, w := range []int{2, 3, 4, 8, 64} {
			got := mustInstance(t, p, k, WithWorkers(w)).CheckStrongConvergence()
			if got.Converges != ref.Converges ||
				!sameWitness(got.DeadlockWitness, ref.DeadlockWitness) ||
				!reflect.DeepEqual(got.LivelockWitness, ref.LivelockWitness) {
				t.Fatalf("K=%d workers=%d: report diverged from sequential", k, w)
			}
		}
	}
}

// TestParallelClosureViolation checks one-worker/four-worker witness
// identity on a protocol whose I is NOT closed (an action that jumps out of
// I), since the zoo protocols are all closed and would leave CheckClosure's
// witness merge untested.
func TestParallelClosureViolation(t *testing.T) {
	p := core.MustNew(core.Config{
		Name:   "leaky",
		Domain: 2,
		Lo:     -1, Hi: 0,
		Actions: []core.Action{{
			Name:  "leak",
			Guard: func(v core.View) bool { return v[1] == 0 },
			Next:  func(v core.View) []int { return []int{1} },
		}},
		Legit: func(v core.View) bool { return v[1] == 0 },
	})
	for _, k := range []int{4, 7} {
		sv := mustInstance(t, p, k, WithWorkers(1)).CheckClosure()
		pv := mustInstance(t, p, k, WithWorkers(4)).CheckClosure()
		if sv == nil || pv == nil {
			t.Fatalf("K=%d: expected a closure violation, got seq=%v par=%v", k, sv, pv)
		}
		if *sv != *pv {
			t.Fatalf("K=%d: closure witness seq=%+v par=%+v", k, *sv, *pv)
		}
	}
}

// TestWithWorkersDefaults pins the option contract: default and n <= 0
// resolve to at least one worker, and the accessor reports the setting.
func TestWithWorkersDefaults(t *testing.T) {
	p := protocols.AgreementBase()
	if w := mustInstance(t, p, 4).Workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if w := mustInstance(t, p, 4, WithWorkers(-3)).Workers(); w < 1 {
		t.Fatalf("WithWorkers(-3) resolved to %d", w)
	}
	if w := mustInstance(t, p, 4, WithWorkers(6)).Workers(); w != 6 {
		t.Fatalf("WithWorkers(6) resolved to %d", w)
	}
}

// TestBitsetClaimsAreExclusive hammers TestAndSet from many goroutines and
// checks every bit is claimed exactly once in total.
func TestBitsetClaimsAreExclusive(t *testing.T) {
	const n = 1 << 12
	const gor = 8
	b := newBitset(n)
	wins := make([]int, gor)
	var wg sync.WaitGroup
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for id := uint64(0); id < n; id++ {
				if b.TestAndSet(id) {
					wins[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, w := range wins {
		total += w
	}
	if total != n {
		t.Fatalf("claimed %d bits, want %d", total, n)
	}
	for id := uint64(0); id < n; id++ {
		if !b.Get(id) {
			t.Fatalf("bit %d unset after claims", id)
		}
	}
}

// TestChunkForCoversRange checks the chunk partition is exact for awkward
// n/worker combinations.
func TestChunkForCoversRange(t *testing.T) {
	for _, n := range []uint64{0, 1, 63, 64, 65, 1000} {
		for _, w := range []int{1, 2, 3, 7, 64} {
			var covered uint64
			prevHi := uint64(0)
			for i := 0; i < w; i++ {
				lo, hi := chunkFor(n, w, i)
				if lo > hi || lo < prevHi {
					t.Fatalf("n=%d w=%d chunk %d: [%d,%d) after %d", n, w, i, lo, hi, prevHi)
				}
				if i > 0 && lo != prevHi && lo != n {
					t.Fatalf("n=%d w=%d chunk %d: gap %d..%d", n, w, i, prevHi, lo)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n {
				t.Fatalf("n=%d w=%d: covered %d states", n, w, covered)
			}
		}
	}
}

// TestSynthesizeGlobalWorkersDeterministic: the parallel per-K baseline
// must pick exactly the sequential search's candidate, with the same
// CandidatesTried and StatesExplored bookkeeping (Table 4 depends on it).
func TestSynthesizeGlobalWorkersDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    int
	}{
		{"agreement", 3},
		{"sum-not-two", 3},
		{"sum-not-two", 4},
		{"coloring3", 3},
	} {
		base := protocols.All()[tc.name]
		seq, err := SynthesizeGlobalWorkers(base, tc.k, 0, 1)
		if err != nil {
			t.Fatalf("%s K=%d seq: %v", tc.name, tc.k, err)
		}
		for _, w := range []int{2, 4, 7} {
			par, err := SynthesizeGlobalWorkers(base, tc.k, 0, w)
			if err != nil {
				t.Fatalf("%s K=%d workers=%d: %v", tc.name, tc.k, w, err)
			}
			if !reflect.DeepEqual(par.Chosen, seq.Chosen) {
				t.Fatalf("%s K=%d workers=%d: chose %v, sequential chose %v",
					tc.name, tc.k, w, par.Chosen, seq.Chosen)
			}
			if par.CandidatesTried != seq.CandidatesTried || par.StatesExplored != seq.StatesExplored {
				t.Fatalf("%s K=%d workers=%d: tried=%d explored=%d, sequential tried=%d explored=%d",
					tc.name, tc.k, w, par.CandidatesTried, par.StatesExplored,
					seq.CandidatesTried, seq.StatesExplored)
			}
		}
	}
}

// TestSynthesizeGlobalWorkersFailureAgrees: when no candidate converges
// (2-coloring), both paths report the same failure.
func TestSynthesizeGlobalWorkersFailureAgrees(t *testing.T) {
	base := protocols.Coloring(2)
	_, seqErr := SynthesizeGlobalWorkers(base, 4, 0, 1)
	_, parErr := SynthesizeGlobalWorkers(base, 4, 0, 4)
	if seqErr == nil || parErr == nil {
		t.Fatalf("expected failures, got seq=%v par=%v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("failure modes differ: seq=%q par=%q", seqErr, parErr)
	}
}

// TestParallelSharedInstance exercises concurrent use of ONE instance — the
// lazily built fast-path table and read-only caches must be safe when the
// same instance serves queries from many goroutines.
func TestParallelSharedInstance(t *testing.T) {
	in := mustInstance(t, protocols.SumNotTwoSolution(), 7, WithWorkers(4))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := uint64(0); id < in.NumStates(); id += 17 {
				in.Successors(id)
				in.IsDeadlock(id)
			}
		}()
	}
	wg.Wait()
	if !in.CheckStrongConvergence().Converges {
		t.Fatal("verdict changed under concurrent queries")
	}
}
