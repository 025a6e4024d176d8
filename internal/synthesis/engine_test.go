package synthesis

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"paramring/internal/core"
	"paramring/internal/ltg"
	"paramring/internal/protocols"
	"paramring/internal/protogen"
	"paramring/internal/rcg"
)

// candSummary is the comparable projection of a Candidate: everything except
// the Protocol pointer (protocols embed action funcs, which defeat
// reflect.DeepEqual).
type candSummary struct {
	Chosen   string
	Resolve  []core.LocalState
	Phase    Phase
	Livelock ltg.Report
	Deadlock rcg.DeadlockReport
}

func summarize(base *core.Protocol, res *Result) []candSummary {
	if res == nil {
		return nil
	}
	sys := base.Compile()
	out := make([]candSummary, len(res.Accepted))
	for i, c := range res.Accepted {
		out[i] = candSummary{
			Chosen:   ltg.FormatTArcs(sys, c.Chosen),
			Resolve:  c.Resolve,
			Phase:    c.Phase,
			Livelock: c.Livelock,
			Deadlock: c.Deadlock,
		}
	}
	return out
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// The PR 1 determinism contract, extended to synthesis: for random base
// protocols, every worker count must produce byte-identical Accepted,
// Rejections, ResolveSets and Steps — in both first-accept and All modes.
// Only Stats may differ (parallel speculation).
func TestSynthesizeSeqParDeterminism(t *testing.T) {
	workersList := []int{1, 4, runtime.GOMAXPROCS(0)}
	rng := rand.New(rand.NewSource(4242))
	compared := 0
	for trial := 0; trial < 60; trial++ {
		base := protogen.Random(rng, protogen.Options{MovePercent: 1})
		if len(base.Compile().Trans) > 0 {
			continue
		}
		for _, all := range []bool{false, true} {
			var ref *Result
			var refErr error
			for i, w := range workersList {
				res, err := Synthesize(base, Options{Workers: w, All: all})
				if i == 0 {
					ref, refErr = res, err
					continue
				}
				if errString(err) != errString(refErr) {
					t.Fatalf("trial %d all=%v workers=%d: error %q, workers=1 got %q",
						trial, all, w, errString(err), errString(refErr))
				}
				if (res == nil) != (ref == nil) {
					t.Fatalf("trial %d all=%v workers=%d: result nil-ness differs", trial, all, w)
				}
				if res == nil {
					continue
				}
				if !reflect.DeepEqual(summarize(base, res), summarize(base, ref)) {
					t.Fatalf("trial %d all=%v workers=%d: Accepted differ", trial, all, w)
				}
				if !reflect.DeepEqual(res.Rejections, ref.Rejections) {
					t.Fatalf("trial %d all=%v workers=%d: Rejections differ", trial, all, w)
				}
				if !reflect.DeepEqual(res.ResolveSets, ref.ResolveSets) {
					t.Fatalf("trial %d all=%v workers=%d: ResolveSets differ", trial, all, w)
				}
				if !reflect.DeepEqual(res.Steps, ref.Steps) {
					t.Fatalf("trial %d all=%v workers=%d: Steps differ", trial, all, w)
				}
			}
		}
		compared++
	}
	if compared < 20 {
		t.Fatalf("too few action-free random bases compared: %d", compared)
	}
}

// Pruning soundness against the reference flat enumeration: on the paper's
// synthesis case studies and on random bases, the branch-and-bound path must
// accept exactly the assignments the flat path accepts and reject exactly the
// ones it rejects, in the same order. (Rejection *reasons* may cite a
// different trail witness — the pruned walk reports the shallowest failing
// prefix — so they are compared only for presence.)
func TestPruningMatchesFlatEnumeration(t *testing.T) {
	tokenRing, _ := protocols.DijkstraTokenRing(3)
	cases := map[string]*core.Protocol{
		"agreement":   protocols.AgreementBase(),
		"coloring2":   protocols.Coloring(2),
		"coloring3":   protocols.Coloring(3),
		"sum-not-two": protocols.SumNotTwoBase(),
		"token-ring":  tokenRing,
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		base := protogen.Random(rng, protogen.Options{MovePercent: 1})
		if len(base.Compile().Trans) == 0 {
			cases[base.Name()] = base
		}
	}
	for name, base := range cases {
		flat, flatErr := Synthesize(base, Options{All: true, Flat: true})
		pruned, prunedErr := Synthesize(base, Options{All: true})
		if errString(flatErr) != errString(prunedErr) {
			t.Fatalf("%s: flat error %q, pruned error %q", name, errString(flatErr), errString(prunedErr))
		}
		if flat == nil || pruned == nil {
			if (flat == nil) != (pruned == nil) {
				t.Fatalf("%s: result nil-ness differs", name)
			}
			continue
		}
		sys := base.Compile()
		if len(flat.Accepted) != len(pruned.Accepted) {
			t.Fatalf("%s: flat accepts %d, pruned accepts %d", name, len(flat.Accepted), len(pruned.Accepted))
		}
		for i := range flat.Accepted {
			f, p := flat.Accepted[i], pruned.Accepted[i]
			if ltg.FormatTArcs(sys, f.Chosen) != ltg.FormatTArcs(sys, p.Chosen) || f.Phase != p.Phase {
				t.Fatalf("%s: accepted[%d] differs: flat %s (%s), pruned %s (%s)", name, i,
					ltg.FormatTArcs(sys, f.Chosen), f.Phase, ltg.FormatTArcs(sys, p.Chosen), p.Phase)
			}
		}
		if len(flat.Rejections) != len(pruned.Rejections) {
			t.Fatalf("%s: flat rejects %d, pruned rejects %d", name, len(flat.Rejections), len(pruned.Rejections))
		}
		for i := range flat.Rejections {
			f, p := flat.Rejections[i], pruned.Rejections[i]
			if !reflect.DeepEqual(f.Resolve, p.Resolve) || !reflect.DeepEqual(f.Chosen, p.Chosen) {
				t.Fatalf("%s: rejection[%d] targets differ: flat %s, pruned %s", name, i,
					ltg.FormatTArcs(sys, f.Chosen), ltg.FormatTArcs(sys, p.Chosen))
			}
			if f.Reason == "" || p.Reason == "" {
				t.Fatalf("%s: rejection[%d] missing reason", name, i)
			}
		}
	}
}

// With All set (no early exit) the search accounting must partition
// sum-not-two's candidate space exactly, and branch-and-bound must prune
// some of it.
func TestSearchAccountingPartitionsCandidates(t *testing.T) {
	res, err := Synthesize(protocols.SumNotTwoBase(), Options{All: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Evaluated+st.PrunedAssignments+st.DeadlockRejected != st.Candidates {
		t.Fatalf("accounting broken: evaluated %d + pruned %d + deadlock-rejected %d != candidates %d",
			st.Evaluated, st.PrunedAssignments, st.DeadlockRejected, st.Candidates)
	}
	if st.PrunedAssignments == 0 {
		t.Fatal("no assignments pruned on sum-not-two: branch-and-bound inactive")
	}
	if st.Evaluated >= st.Candidates {
		t.Fatalf("pruning saved nothing: evaluated %d of %d", st.Evaluated, st.Candidates)
	}
}

// The raised assignment ceiling: the old flat default (4096) no longer bounds
// the search — the engine's default admits products up to 1<<20.
func TestDefaultAssignmentCeilingRaised(t *testing.T) {
	var o Options
	o.defaults()
	if o.MaxAssignments != 1<<20 {
		t.Fatalf("default MaxAssignments = %d, want %d", o.MaxAssignments, 1<<20)
	}
	if o.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("default Workers = %d, want GOMAXPROCS = %d", o.Workers, runtime.GOMAXPROCS(0))
	}
}

// Workers: 0 must resolve to the documented default (GOMAXPROCS) rather than
// slipping through to the engine's min(Workers, total) clamp as zero — and,
// default or not, the Results must stay byte-identical to the sequential
// reference (only Stats may differ).
func TestWorkersZeroMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	compared := 0
	for trial := 0; trial < 40 && compared < 10; trial++ {
		base := protogen.Random(rng, protogen.Options{MovePercent: 1})
		if len(base.Compile().Trans) > 0 {
			continue
		}
		seq, seqErr := Synthesize(base, Options{All: true, Workers: 1})
		def, defErr := Synthesize(base, Options{All: true, Workers: 0})
		if errString(seqErr) != errString(defErr) {
			t.Fatalf("trial %d: error %q (Workers=1) vs %q (Workers=0)",
				trial, errString(seqErr), errString(defErr))
		}
		if (seq == nil) != (def == nil) {
			t.Fatalf("trial %d: result nil-ness differs", trial)
		}
		if seq == nil {
			continue
		}
		if def.Stats.Workers != runtime.GOMAXPROCS(0) {
			t.Fatalf("trial %d: Workers=0 ran with %d workers, want GOMAXPROCS = %d",
				trial, def.Stats.Workers, runtime.GOMAXPROCS(0))
		}
		if !reflect.DeepEqual(summarize(base, seq), summarize(base, def)) {
			t.Fatalf("trial %d: Accepted differ between Workers=1 and Workers=0", trial)
		}
		if !reflect.DeepEqual(seq.Rejections, def.Rejections) {
			t.Fatalf("trial %d: Rejections differ between Workers=1 and Workers=0", trial)
		}
		if !reflect.DeepEqual(seq.ResolveSets, def.ResolveSets) {
			t.Fatalf("trial %d: ResolveSets differ between Workers=1 and Workers=0", trial)
		}
		if !reflect.DeepEqual(seq.Steps, def.Steps) {
			t.Fatalf("trial %d: Steps differ between Workers=1 and Workers=0", trial)
		}
		compared++
	}
	if compared < 10 {
		t.Fatalf("too few action-free random bases compared: %d", compared)
	}
}
