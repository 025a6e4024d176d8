// Package experiments regenerates every figure and evaluation claim of the
// paper and compares it against this reproduction's measurements. Each
// experiment corresponds to a row of the per-experiment index in DESIGN.md
// (F1-F12 for the figures, T1-T4 for the systems-level tables) and is
// exercised both by the lrexperiments CLI and by the test suite.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"paramring/internal/core"
	"paramring/internal/explicit"
	"paramring/internal/ltg"
	"paramring/internal/protocols"
	"paramring/internal/rcg"
	"paramring/internal/sim"
	"paramring/internal/synthesis"
	"paramring/internal/trace"
)

// maxStatesOverride, when non-zero, replaces the per-experiment explicit
// state-count guards (set via SetMaxStates from lrexperiments -max-states).
var maxStatesOverride uint64

// SetMaxStates overrides the explicit-engine state-count guard used by the
// state-space experiments (T1, X8). n = 0 restores the per-experiment
// defaults. The guard only bounds instance size — with the packed bitset
// substrate the engine's default ceiling is 1<<28 states, so raising the
// experiment guards toward it trades wall-clock for larger-K rows.
func SetMaxStates(n uint64) { maxStatesOverride = n }

// stateLimit resolves an experiment's default guard against the override.
func stateLimit(def uint64) uint64 {
	if maxStatesOverride > 0 {
		return maxStatesOverride
	}
	return def
}

// synthesisWorkers, when > 1, parallelizes the synthesis search in the
// Section 6 experiments (set via SetSynthesisWorkers from lrexperiments
// -synth-workers). The engine's deterministic first-accept rule makes every
// experiment's output identical for any worker count.
var synthesisWorkers int

// SetSynthesisWorkers sets the worker count the synthesis experiments pass
// to synthesis.Synthesize. n <= 1 searches sequentially.
func SetSynthesisWorkers(n int) { synthesisWorkers = n }

// synthOptions applies the worker override to an experiment's options.
func synthOptions(opts synthesis.Options) synthesis.Options {
	if synthesisWorkers > 1 {
		opts.Workers = synthesisWorkers
	}
	return opts
}

// Outcome is the verdict of one experiment.
type Outcome struct {
	// Measured is a one-line summary of what this reproduction observed.
	Measured string
	// Match reports agreement with the paper's claim.
	Match bool
	// Note carries deviations or refinements relative to the paper.
	Note string
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID    string
	Title string
	// Paper states what the paper claims/reports for this artifact.
	Paper string
	// Run executes the experiment, writing details to w.
	Run func(w io.Writer) (Outcome, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		figure1(), figure2(), figure3(), figure4(), figure5(), figure6(),
		figure7(), figure8(), figure9(), figure10(), figure11(), figure12(),
		tableCost(), tableModelChecking(), tableLemmas(), tableGeneralization(),
	}
}

// ByID returns the experiment (paper or extension) with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range AllWithExtensions() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

func figure1() Experiment {
	return Experiment{
		ID:    "F1",
		Title: "RCG over all local states of maximal matching",
		Paper: "27 local states; each has one right continuation per domain value (Figure 1)",
		Run: func(w io.Writer) (Outcome, error) {
			p := protocols.MatchingStateSpace()
			r := rcg.Build(p.Compile())
			n, m := r.Graph().N(), r.Graph().M()
			outDegOK := true
			for v := 0; v < n; v++ {
				if r.Graph().OutDegree(v) != 3 {
					outDegOK = false
				}
			}
			fmt.Fprintf(w, "vertices=%d s-arcs=%d uniform-out-degree-3=%v\n", n, m, outDegOK)
			fmt.Fprintf(w, "render with: lrviz -protocol matching -graph rcg\n")
			return Outcome{
				Measured: fmt.Sprintf("27 local states, 81 s-arcs, out-degree 3 everywhere"),
				Match:    n == 27 && m == 81 && outDegOK,
			}, nil
		},
	}
}

func figure2() Experiment {
	return Experiment{
		ID:    "F2",
		Title: "Example 4.2 (matching A): deadlock-free for every K by Theorem 4.2",
		Paper: "RCG induced over local deadlocks has no cycle through an illegitimate state",
		Run: func(w io.Writer) (Outcome, error) {
			p := protocols.MatchingA()
			r := rcg.Build(p.Compile())
			rep, err := r.CheckDeadlockFreedom(0)
			if err != nil {
				return Outcome{}, err
			}
			fmt.Fprintf(w, "local deadlocks=%d illegitimate=%d verdict free=%v\n",
				len(rep.LocalDeadlocks), len(rep.IllegitimateDeadlocks), rep.Free)
			return Outcome{
				Measured: fmt.Sprintf("%d local deadlocks, no illegitimate deadlock cycle (free=%v)", len(rep.LocalDeadlocks), rep.Free),
				Match:    rep.Free,
			}, nil
		},
	}
}

func figure3() Experiment {
	return Experiment{
		ID:    "F3",
		Title: "Example 4.3 (matching B): illegitimate deadlock cycles and affected ring sizes",
		Paper: "two cycles (length 4 and 6) through <left,left,self>; deadlocks on multiples of 4 or 6; resolving lls repairs",
		Run: func(w io.Writer) (Outcome, error) {
			p := protocols.MatchingB()
			r := rcg.Build(p.Compile())
			rep, err := r.CheckDeadlockFreedom(0)
			if err != nil {
				return Outcome{}, err
			}
			lens := rep.SortedBadCycleLengths()
			for _, c := range rep.BadCycles {
				fmt.Fprintf(w, "cycle len %d: %s\n", len(c), r.FormatCycle(c))
			}
			// Predicted vs explicit per ring size.
			tb := trace.NewTable("K", "RCG predicts deadlock", "explicit finds deadlock", "agree")
			agree := true
			predicted := r.DeadlockRingSizes(2, 9)
			for k := 2; k <= 9; k++ {
				in, err := explicit.NewInstance(p, k)
				if err != nil {
					return Outcome{}, err
				}
				actual := len(in.IllegitimateDeadlocks()) > 0
				if predicted[k] != actual {
					agree = false
				}
				tb.AddRow(k, predicted[k], actual, predicted[k] == actual)
			}
			fmt.Fprint(w, tb.String())
			// Repair.
			repaired := p.WithActions("matchingB+fix", core.Action{
				Name: "FixLLS",
				Guard: func(v core.View) bool {
					return v[0] == protocols.MatchLeft && v[1] == protocols.MatchLeft && v[2] == protocols.MatchSelf
				},
				Next: func(v core.View) []int { return []int{protocols.MatchSelf} },
			})
			fixRep, err := rcg.Build(repaired.Compile()).CheckDeadlockFreedom(0)
			if err != nil {
				return Outcome{}, err
			}
			fmt.Fprintf(w, "after resolving lls: free=%v\n", fixRep.Free)
			match := len(lens) == 2 && lens[0] == 4 && lens[1] == 6 && agree && fixRep.Free
			return Outcome{
				Measured: fmt.Sprintf("elementary cycle lengths %v through lls; per-K predictions agree with explicit search; repair works", lens),
				Match:    match,
				Note:     "refinement: composite closed walks also deadlock K=7,8,9,... — the paper's \"multiples of 4 or 6\" counts only the two elementary cycles; Theorem 4.2's walk semantics (validated above) covers all sizes",
			}, nil
		},
	}
}

func figure4() Experiment {
	return Experiment{
		ID:    "F4",
		Title: "LTG of Example 4.2",
		Paper: "local transition graph: continuation s-arcs plus local-transition t-arcs",
		Run: func(w io.Writer) (Outcome, error) {
			l := ltg.Build(protocols.MatchingA().Compile())
			fmt.Fprintf(w, "vertices=%d s-arcs=%d t-arcs=%d\n",
				l.SArcs().N(), l.SArcs().M(), len(l.TArcs()))
			fmt.Fprintf(w, "render with: lrviz -protocol matchingA -graph ltg\n")
			return Outcome{
				Measured: fmt.Sprintf("27 vertices, 81 s-arcs, %d t-arcs", len(l.TArcs())),
				Match:    l.SArcs().N() == 27 && l.SArcs().M() == 81 && len(l.TArcs()) > 0,
			}, nil
		},
	}
}

func figure5() Experiment {
	return Experiment{
		ID:    "F5",
		Title: "Precedence relation of the K=4 agreement livelock",
		Paper: "three independent pairs of local transitions => 8 = 2^3 precedence-preserving permutations",
		Run: func(w io.Writer) (Outcome, error) {
			procs := []int{1, 0, 2, 3, 1, 0, 2, 3}
			dag := ltg.DependencyDAG(4, procs)
			pairs := ltg.IndependentPairs(dag)
			exts, err := ltg.LinearExtensions(dag, 0)
			if err != nil {
				return Outcome{}, err
			}
			fmt.Fprintf(w, "schedule processes: %v\n", procs)
			fmt.Fprintf(w, "independent pairs: %v\n", pairs)
			fmt.Fprintf(w, "precedence Hasse diagram (Figure 5's drawing): %v\n",
				dag.TransitiveReduction().Edges())
			fmt.Fprintf(w, "precedence-preserving permutations: %d\n", len(exts))
			return Outcome{
				Measured: fmt.Sprintf("%d independent pairs, %d permutations", len(pairs), len(exts)),
				Match:    len(pairs) == 3 && len(exts) == 8,
			}, nil
		},
	}
}

func figure6() Experiment {
	return Experiment{
		ID:    "F6",
		Title: "Every precedence-preserving permutation is a livelock (Lemma 5.11)",
		Paper: "two permutations shown as livelocks; the lemma covers all of them",
		Run: func(w io.Writer) (Outcome, error) {
			in, err := explicit.NewInstance(protocols.AgreementBoth(), 4)
			if err != nil {
				return Outcome{}, err
			}
			start := in.Encode([]int{1, 0, 0, 0})
			procs := []int{1, 0, 2, 3, 1, 0, 2, 3}
			dag := ltg.DependencyDAG(4, procs)
			exts, err := ltg.LinearExtensions(dag, 0)
			if err != nil {
				return Outcome{}, err
			}
			okAll := true
			for _, perm := range exts {
				sched := ltg.PermuteSchedule(procs, perm)
				states, err := in.Computation(start, sched)
				ok := err == nil && states[len(states)-1] == start && in.IsLivelock(states[:len(states)-1])
				if !ok {
					okAll = false
				}
				comp := trace.Computation{In: in, States: states, Procs: sched}
				fmt.Fprintf(w, "perm %v livelock=%v: %s\n", perm, ok, comp.String())
			}
			return Outcome{
				Measured: fmt.Sprintf("all %d permutations verified as livelocks", len(exts)),
				Match:    okAll,
			}, nil
		},
	}
}

func figure7() Experiment {
	return Experiment{
		ID:    "F7",
		Title: "Contiguous livelock rotation (K=6, |E|=3)",
		Paper: "the rightmost enablement propagates; after K-|E| steps the segment re-forms, rotated; K repetitions rotate fully",
		Run: func(w io.Writer) (Outcome, error) {
			enc := func(a, b int) core.LocalState { return core.Encode(core.View{a, b}, 3) }
			p, err := core.NewFromTable(core.Config{
				Name: "coloring3+cyc", Domain: 3, Lo: -1, Hi: 0,
				Legit: func(v core.View) bool { return v[0] != v[1] },
			}, []core.TableAction{
				{Name: "t01", Moves: map[core.LocalState][]int{enc(0, 0): {1}}},
				{Name: "t12", Moves: map[core.LocalState][]int{enc(1, 1): {2}}},
				{Name: "t20", Moves: map[core.LocalState][]int{enc(2, 2): {0}}},
			})
			if err != nil {
				return Outcome{}, err
			}
			in, err := explicit.NewInstance(p, 6)
			if err != nil {
				return Outcome{}, err
			}
			rng := rand.New(rand.NewSource(7))
			start := in.Encode([]int{0, 0, 0, 0, 1, 2})
			steps, closed, err := sim.ContiguousRotation(in, start, 1000, rng)
			if err != nil {
				return Outcome{}, err
			}
			constE := true
			contiguousAtReform := true
			for i, s := range steps {
				if len(s.Enabled) != 3 {
					constE = false
				}
				if i%3 == 0 && !sim.IsContiguousSegment(6, s.Enabled) {
					contiguousAtReform = false
				}
				if i < 8 {
					fmt.Fprintf(w, "step %2d state=%s enabled=%v\n", i, in.Format(s.State), s.Enabled)
				}
			}
			fmt.Fprintf(w, "... run length %d, cycle closed=%v\n", len(steps)-1, closed)
			return Outcome{
				Measured: fmt.Sprintf("|E| constant at 3, segment re-forms every K-|E|=3 steps, cycle closes after %d steps", len(steps)-1),
				Match:    closed && constE && contiguousAtReform,
			}, nil
		},
	}
}

func figure8() Experiment {
	return Experiment{
		ID:    "F8",
		Title: "Gouda-Acharya matching fragment: livelock at K=5 forms a contiguous trail",
		Paper: "livelock <lslsl, sslsl, ...> with one enablement; 10-arc alternating trail in the LTG",
		Run: func(w io.Writer) (Outcome, error) {
			p := protocols.GoudaAcharya()
			rep, err := ltg.CheckLivelockFreedom(p, ltg.CheckOptions{})
			if err != nil {
				return Outcome{}, err
			}
			fmt.Fprintf(w, "Theorem 5.14 verdict: %v (%s)\n", rep.Verdict, rep.Reason)
			in, err := explicit.NewInstance(p, 5)
			if err != nil {
				return Outcome{}, err
			}
			names := []string{"lslsl", "sslsl", "sllsl", "slssl", "slsll", "slsls", "llsls", "lssls", "lslls", "lslss"}
			cycle := make([]uint64, len(names))
			for i, s := range names {
				vals := make([]int, len(s))
				for j, ch := range s {
					switch ch {
					case 'l':
						vals[j] = protocols.MatchLeft
					case 's':
						vals[j] = protocols.MatchSelf
					}
				}
				cycle[i] = in.Encode(vals)
			}
			paperCycleOK := in.IsLivelock(cycle)
			fmt.Fprintf(w, "paper's 10-state K=5 cycle verified as livelock: %v\n", paperCycleOK)
			enabledCounts := map[int]bool{}
			for _, s := range cycle {
				enabledCounts[len(in.EnabledProcesses(s))] = true
			}
			fmt.Fprintf(w, "enablement count along the livelock: %v (|E| = 1)\n", keysOf(enabledCounts))
			return Outcome{
				Measured: fmt.Sprintf("potential-livelock verdict with t-arcs {t_ls,t_sl}; paper's K=5 cycle is a real livelock with |E|=1"),
				Match:    rep.Verdict == ltg.VerdictPotentialLivelock && paperCycleOK && len(enabledCounts) == 1 && enabledCounts[1],
			}, nil
		},
	}
}

func figure9() Experiment {
	return Experiment{
		ID:    "F9",
		Title: "3-coloring synthesis declares failure",
		Paper: "Resolve = {00,11,22}; 2^3 = 8 candidate sets; every one forms a pseudo-livelock in a contiguous trail",
		Run: func(w io.Writer) (Outcome, error) {
			res, err := synthesis.Synthesize(protocols.Coloring(3), synthOptions(synthesis.Options{All: true}))
			for _, s := range res.Steps {
				fmt.Fprintln(w, s)
			}
			failed := err != nil && len(res.Accepted) == 0
			return Outcome{
				Measured: fmt.Sprintf("Resolve={00,11,22}, 8 candidate sets, %d rejections, failure declared", len(res.Rejections)),
				Match:    failed && len(res.Rejections) == 8 && len(res.ResolveSets) == 1,
			}, nil
		},
	}
}

func figure10() Experiment {
	return Experiment{
		ID:    "F10",
		Title: "Agreement synthesis: one-sided correction converges for every K",
		Paper: "Resolve={01} or {10}; include t01 xor t10; both-sided fails the sufficient condition",
		Run: func(w io.Writer) (Outcome, error) {
			res, err := synthesis.Synthesize(protocols.AgreementBase(), synthOptions(synthesis.Options{All: true}))
			if err != nil {
				return Outcome{}, err
			}
			for _, s := range res.Steps {
				fmt.Fprintln(w, s)
			}
			// Both-sided check.
			bothRep, err := ltg.CheckLivelockFreedom(protocols.AgreementBoth(), ltg.CheckOptions{})
			if err != nil {
				return Outcome{}, err
			}
			fmt.Fprintf(w, "both-sided verdict: %v\n", bothRep.Verdict)
			// Cross-validate the first solution for K=2..10.
			allConverge := true
			for k := 2; k <= 10; k++ {
				in, err := explicit.NewInstance(res.Best().Protocol, k)
				if err != nil {
					return Outcome{}, err
				}
				if !in.CheckStrongConvergence().Converges {
					allConverge = false
				}
			}
			fmt.Fprintf(w, "synthesized protocol converges for K=2..10: %v\n", allConverge)
			return Outcome{
				Measured: fmt.Sprintf("%d one-sided solutions (NPL); both-sided = %v; explicit convergence K=2..10", len(res.Accepted), bothRep.Verdict),
				Match: len(res.Accepted) == 2 && allConverge &&
					bothRep.Verdict == ltg.VerdictPotentialLivelock,
			}, nil
		},
	}
}

func figure11() Experiment {
	return Experiment{
		ID:    "F11",
		Title: "2-coloring synthesis cannot conclude (and SS 2-coloring is impossible)",
		Paper: "both illegitimate deadlocks must be resolved; the resolution forms a trail; failure declared",
		Run: func(w io.Writer) (Outcome, error) {
			res, err := synthesis.Synthesize(protocols.Coloring(2), synthOptions(synthesis.Options{All: true}))
			for _, s := range res.Steps {
				fmt.Fprintln(w, s)
			}
			failed := err != nil && len(res.Accepted) == 0
			// The failure is real here: the only candidate set livelocks.
			pss, err2 := synthesis.Apply(protocols.Coloring(2), res.Rejections[0].Chosen, "conv")
			if err2 != nil {
				return Outcome{}, err2
			}
			in, err2 := explicit.NewInstance(pss, 4)
			if err2 != nil {
				return Outcome{}, err2
			}
			real := in.FindLivelock() != nil
			fmt.Fprintf(w, "the rejected candidate really livelocks at K=4: %v\n", real)
			return Outcome{
				Measured: fmt.Sprintf("Resolve={00,11}; single candidate set rejected; real livelock at K=4: %v", real),
				Match:    failed && real && len(res.ResolveSets) == 1 && len(res.ResolveSets[0]) == 2,
			}, nil
		},
	}
}

func figure12() Experiment {
	return Experiment{
		ID:    "F12",
		Title: "Sum-not-two: accepted and rejected candidate sets; spurious trails",
		Paper: "{t21,t10,t02} and {t01,t12,t20} rejected (pseudo-livelock + trail; the former's trail is spurious); {t21,t12,t01} accepted and converging",
		Run: func(w io.Writer) (Outcome, error) {
			base := protocols.SumNotTwoBase()
			res, err := synthesis.Synthesize(base, synthOptions(synthesis.Options{All: true}))
			if err != nil {
				return Outcome{}, err
			}
			for _, s := range res.Steps {
				fmt.Fprintln(w, s)
			}
			sys := base.Compile()
			accepted := map[string]bool{}
			for _, c := range res.Accepted {
				accepted[ltg.FormatTArcs(sys, c.Chosen)] = true
			}
			rejected := map[string]bool{}
			for _, r := range res.Rejections {
				rejected[ltg.FormatTArcs(sys, r.Chosen)] = true
			}
			// Paper's accepted set {t21,t12,t01} in window notation.
			paperAccepted := "{conv:20->21, conv:11->12, conv:02->01}"
			paperRejected1 := "{conv:20->22, conv:11->10, conv:02->01}" // {t02,t10,t21}
			paperRejected2 := "{conv:20->21, conv:11->12, conv:02->00}" // {t01,t12,t20}
			// Classify each rejection by explicit search: the paper's two
			// rejected triples have only SPURIOUS trails (no livelock at any
			// K we can check); the two sets containing both t02 and t20 have
			// REAL livelocks at K=3 — sets the paper's blanket "none of the
			// remaining..." statement would wrongly accept.
			spuriousCnt, realCnt := 0, 0
			for _, r := range res.Rejections {
				pss, err := synthesis.Apply(base, r.Chosen, "conv")
				if err != nil {
					return Outcome{}, err
				}
				real := false
				for k := 3; k <= 5; k++ {
					in, err := explicit.NewInstance(pss, k)
					if err != nil {
						return Outcome{}, err
					}
					if c := in.FindLivelock(); c != nil {
						real = true
						fmt.Fprintf(w, "rejected %s: REAL livelock at K=%d: %s\n",
							ltg.FormatTArcs(sys, r.Chosen), k, in.FormatCycle(c))
						break
					}
				}
				if real {
					realCnt++
				} else {
					spuriousCnt++
					fmt.Fprintf(w, "rejected %s: trail is spurious (no livelock K=3..5)\n",
						ltg.FormatTArcs(sys, r.Chosen))
				}
			}
			fmt.Fprintf(w, "accepted sets: %d, rejected: %d (%d real livelocks, %d spurious trails)\n",
				len(res.Accepted), len(res.Rejections), realCnt, spuriousCnt)
			match := accepted[paperAccepted] && rejected[paperRejected1] && rejected[paperRejected2] &&
				spuriousCnt == 2 && realCnt == 2
			return Outcome{
				Measured: "paper's accepted set accepted; both paper-rejected triples rejected and confirmed spurious; 2 further sets rejected with REAL K=3 livelocks",
				Match:    match,
				Note:     "paper erratum: the claim that none of the remaining 6 candidate sets forms a pseudo-livelocking trail is wrong — {t02,t10,t20} and {t02,t12,t20} livelock at K=3 (<200,220,020,022,002,202>); our checker rejects them, the paper's statement would accept them",
			}, nil
		},
	}
}

// bestTime runs fn at least three times and until 20ms have passed, and
// returns the shortest run. Preemption and collector pauses only ever add
// to a run, so the shortest is the cost of the work; spreading the runs
// over 20ms keeps one stall from covering every run of a microsecond-scale
// check.
func bestTime(fn func()) time.Duration {
	var best time.Duration
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < 20*time.Millisecond; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return best
}

func tableCost() Experiment {
	return Experiment{
		ID:    "T1",
		Title: "Local reasoning vs global state exploration cost",
		Paper: "\"a significant improvement in the time/space complexity\" — local work is constant in K, global is domain^K",
		Run: func(w io.Writer) (Outcome, error) {
			p := protocols.SumNotTwoSolution()
			// Local: one Theorem 4.2 + Theorem 5.14 run covers ALL K.
			var (
				dlRep        rcg.DeadlockReport
				llRep        ltg.Report
				dlErr, llErr error
			)
			localTime := bestTime(func() {
				dlRep, dlErr = rcg.Build(p.Compile()).CheckDeadlockFreedom(0)
				llRep, llErr = ltg.CheckLivelockFreedom(p, ltg.CheckOptions{})
			})
			if dlErr != nil {
				return Outcome{}, dlErr
			}
			if llErr != nil {
				return Outcome{}, llErr
			}
			workers := runtime.GOMAXPROCS(0)
			fmt.Fprintf(w, "local: deadlock-free=%v livelock=%v states=9 time=%v (covers every K)\n",
				dlRep.Free, llRep.Verdict, localTime)
			tb := trace.NewTable("K", "global states", "global seq", fmt.Sprintf("global par (%dw)", workers),
				"par speedup", "local/global speedup")
			monotone := true
			var prev time.Duration
			for _, k := range []int{4, 6, 8, 10, 12} {
				seqIn, err := explicit.NewInstance(p, k, explicit.WithMaxStates(stateLimit(1<<24)), explicit.WithWorkers(1))
				if err != nil {
					return Outcome{}, err
				}
				var rep explicit.ConvergenceReport
				gTime := bestTime(func() { rep = seqIn.CheckStrongConvergence() })
				if !rep.Converges {
					return Outcome{}, fmt.Errorf("unexpected non-convergence at K=%d", k)
				}
				parIn, err := explicit.NewInstance(p, k, explicit.WithMaxStates(stateLimit(1<<24)))
				if err != nil {
					return Outcome{}, err
				}
				var prep explicit.ConvergenceReport
				pTime := bestTime(func() { prep = parIn.CheckStrongConvergence() })
				if prep.Converges != rep.Converges {
					return Outcome{}, fmt.Errorf("parallel verdict diverged at K=%d", k)
				}
				speed := float64(gTime) / float64(localTime)
				// Match depends on the sequential times only: on a single-core
				// box the parallel column is informational.
				tb.AddRow(k, rep.StatesExplored, gTime.Round(time.Microsecond),
					pTime.Round(time.Microsecond),
					fmt.Sprintf("%.2fx", float64(gTime)/float64(pTime)),
					fmt.Sprintf("%.1fx", speed))
				if gTime < prev {
					monotone = false
				}
				prev = gTime
			}
			fmt.Fprint(w, tb.String())
			fmt.Fprintln(w, "each time is the shortest of at least 3 runs spread over at least 20ms")
			return Outcome{
				Measured: "local check is one constant-size analysis valid for all K; global cost grows as 3^K (exponential sweep shown, sequential vs parallel engine)",
				Match:    dlRep.Free && llRep.Verdict == ltg.VerdictFree && monotone,
			}, nil
		},
	}
}

func tableModelChecking() Experiment {
	return Experiment{
		ID:    "T2",
		Title: "Example 4.2 model-checked for 5,6,7,8 processes",
		Paper: "\"We model-checked this protocol for different sizes of ring (5,6,7 and 8 processes) and demonstrated its deadlock freedom\"",
		Run: func(w io.Writer) (Outcome, error) {
			ok := true
			tb := trace.NewTable("K", "illegitimate deadlocks", "strongly converges")
			for _, k := range []int{5, 6, 7, 8} {
				in, err := explicit.NewInstance(protocols.MatchingA(), k)
				if err != nil {
					return Outcome{}, err
				}
				dl := len(in.IllegitimateDeadlocks())
				conv := in.CheckStrongConvergence().Converges
				tb.AddRow(k, dl, conv)
				if dl != 0 || !conv {
					ok = false
				}
			}
			fmt.Fprint(w, tb.String())
			return Outcome{
				Measured: "0 illegitimate deadlocks and full strong convergence for K=5,6,7,8",
				Match:    ok,
			}, nil
		},
	}
}

func tableLemmas() Experiment {
	return Experiment{
		ID:    "T3",
		Title: "Section 5 lemmas validated under simulation",
		Paper: "enablement conservation (5.5), collisions decrease |E| (5.6), no continuously enabled process in livelocks (5.7)",
		Run: func(w io.Writer) (Outcome, error) {
			rng := rand.New(rand.NewSource(42))
			in, err := explicit.NewInstance(protocols.AgreementBoth(), 6)
			if err != nil {
				return Outcome{}, err
			}
			nonIncreasing := true
			for trial := 0; trial < 200; trial++ {
				res := sim.Run(in, sim.RandomState(in, rng), sim.Random{}, rng,
					sim.Options{MaxSteps: 100, ContinueInsideI: true})
				for i := 1; i < len(res.EnabledCounts); i++ {
					if res.EnabledCounts[i] > res.EnabledCounts[i-1] {
						nonIncreasing = false
					}
				}
			}
			fmt.Fprintf(w, "200 random runs (K=6 agreement-both): |E| never increased: %v\n", nonIncreasing)
			st := sim.ConvergenceStats(in, func() sim.Scheduler { return sim.Random{} }, 200, 5000, rng)
			fmt.Fprintf(w, "random daemon: %d/%d runs converged (livelocks are scheduler-dependent), max |E| seen %d\n",
				st.Converged, st.Trials, st.MaxEnabled)
			return Outcome{
				Measured: "enablement conservation holds in all 200 sampled computations",
				Match:    nonIncreasing,
			}, nil
		},
	}
}

func tableGeneralization() Experiment {
	return Experiment{
		ID:    "T4",
		Title: "Global synthesis is not generalizable; local synthesis is",
		Paper: "STSyn-style output carries no guarantee beyond its K (Example 4.3 stabilizes for 5 but not 6)",
		Run: func(w io.Writer) (Outcome, error) {
			res, err := explicit.SynthesizeGlobal(protocols.Coloring(3), 3, 0)
			if err != nil {
				return Outcome{}, err
			}
			fmt.Fprintf(w, "global synthesis of 3-coloring at K=3 chose %s (%d candidates tried, %d states explored)\n",
				ltg.FormatTArcs(protocols.Coloring(3).Compile(), res.Chosen), res.CandidatesTried, res.StatesExplored)
			conv3 := explicit.MustNewInstance(res.Protocol, 3).CheckStrongConvergence().Converges
			fail4 := !explicit.MustNewInstance(res.Protocol, 4).CheckStrongConvergence().Converges
			fmt.Fprintf(w, "converges at K=3: %v; fails at K=4: %v\n", conv3, fail4)
			_, lerr := synthesis.Synthesize(protocols.Coloring(3), synthOptions(synthesis.Options{}))
			localFails := lerr != nil
			fmt.Fprintf(w, "local methodology on the same input declares failure (correct for all K): %v\n", localFails)
			// And matching B vs A is the paper's own instance of the story.
			b5 := explicit.MustNewInstance(protocols.MatchingB(), 5).CheckStrongConvergence().Converges
			b6 := explicit.MustNewInstance(protocols.MatchingB(), 6).CheckStrongConvergence().Converges
			fmt.Fprintf(w, "matchingB (STSyn output): stabilizes K=5: %v, K=6: %v\n", b5, b6)
			return Outcome{
				Measured: "global K=3 solution for 3-coloring fails at K=4; local method declares failure instead; matchingB stabilizes at 5 but not 6",
				Match:    conv3 && fail4 && localFails && b5 && !b6,
			}, nil
		},
	}
}

func keysOf(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
