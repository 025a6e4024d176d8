package ltg

import (
	"math/rand"
	"reflect"
	"testing"

	"paramring/internal/core"
	"paramring/internal/explicit"
	"paramring/internal/graph"
	"paramring/internal/protocols"
	"paramring/internal/protogen"
)

func dagWithEdge10() *graph.Digraph {
	g := graph.New(2)
	g.AddEdge(1, 0)
	return g
}

func enc2(d, a, b int) core.LocalState { return core.Encode(core.View{a, b}, d) }

// tableProtocol builds a unidirectional protocol from explicit per-action
// single-transition tables, used to express the paper's candidate sets.
func tableProtocol(t *testing.T, name string, d int, legit func(core.View) bool, actions map[string]map[core.LocalState][]int) *core.Protocol {
	t.Helper()
	var tables []core.TableAction
	// Deterministic order by name.
	names := make([]string, 0, len(actions))
	for n := range actions {
		names = append(names, n)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, n := range names {
		tables = append(tables, core.TableAction{Name: n, Moves: actions[n]})
	}
	p, err := core.NewFromTable(core.Config{
		Name: name, Domain: d, Lo: -1, Hi: 0, Legit: legit,
	}, tables)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func colorLegit(v core.View) bool { return v[0] != v[1] }
func sntLegit(v core.View) bool   { return v[0]+v[1] != 2 }

// --- write projection / pseudo-livelock tests --------------------------------

func TestWriteProjection(t *testing.T) {
	sys := protocols.AgreementBoth().Compile()
	g := WriteProjection(sys, sys.Trans)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.M() != 2 {
		t.Fatalf("projection edges wrong: %v", g.Edges())
	}
}

func TestFormsPseudoLivelockPaperClassifications(t *testing.T) {
	// Sum-not-two t-arcs (paper Section 6.2): t21, t12, t01, t10, t02, t20.
	d := 3
	mk := func(src core.LocalState, val int, name string) map[string]map[core.LocalState][]int {
		return map[string]map[core.LocalState][]int{name: {src: {val}}}
	}
	_ = mk
	build := func(name string, actions map[string]map[core.LocalState][]int) *core.System {
		return tableProtocol(t, name, d, sntLegit, actions).Compile()
	}
	t21 := map[core.LocalState][]int{enc2(d, 0, 2): {1}}
	t12 := map[core.LocalState][]int{enc2(d, 1, 1): {2}}
	t01 := map[core.LocalState][]int{enc2(d, 2, 0): {1}}
	t10 := map[core.LocalState][]int{enc2(d, 1, 1): {0}}
	t02 := map[core.LocalState][]int{enc2(d, 2, 0): {2}}
	t20 := map[core.LocalState][]int{enc2(d, 0, 2): {0}}

	cases := []struct {
		name    string
		actions map[string]map[core.LocalState][]int
		want    bool
	}{
		{"t21+t12 (2<->1 cycle)", map[string]map[core.LocalState][]int{"t21": t21, "t12": t12}, true},
		{"t01+t12+t20 (0->1->2->0)", map[string]map[core.LocalState][]int{"t01": t01, "t12": t12, "t20": t20}, true},
		{"t21+t10+t02 (2->1->0->2)", map[string]map[core.LocalState][]int{"t21": t21, "t10": t10, "t02": t02}, true},
		{"t21+t12+t01 (accepted: 0->1 never recurs)", map[string]map[core.LocalState][]int{"t21": t21, "t12": t12, "t01": t01}, false},
		{"t01 alone", map[string]map[core.LocalState][]int{"t01": t01}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := build("x", tc.actions)
			if got := FormsPseudoLivelock(sys, sys.Trans); got != tc.want {
				t.Fatalf("FormsPseudoLivelock = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestFormsPseudoLivelockEmpty(t *testing.T) {
	sys := protocols.AgreementBase().Compile()
	if FormsPseudoLivelock(sys, nil) {
		t.Fatal("empty set is not a pseudo-livelock")
	}
}

func TestHasPseudoLivelockSubset(t *testing.T) {
	// {t21, t12, t01}: the full set is not a pseudo-livelock, but the subset
	// {t21, t12} is.
	p := tableProtocol(t, "x", 3, sntLegit, map[string]map[core.LocalState][]int{
		"t21": {enc2(3, 0, 2): {1}},
		"t12": {enc2(3, 1, 1): {2}},
		"t01": {enc2(3, 2, 0): {1}},
	})
	sys := p.Compile()
	if FormsPseudoLivelock(sys, sys.Trans) {
		t.Fatal("full set should not form a pseudo-livelock")
	}
	if !HasPseudoLivelockSubset(sys, sys.Trans) {
		t.Fatal("subset {t21,t12} forms a pseudo-livelock")
	}
	subs := MinimalPseudoLivelockSubsets(sys, sys.Trans)
	if len(subs) != 1 || len(subs[0]) != 2 {
		t.Fatalf("minimal pseudo-livelock subsets = %v", subs)
	}
}

// --- Theorem 5.14 verdicts on the paper's examples ----------------------------

func TestAgreementOneSidedProvedFree(t *testing.T) {
	for _, side := range []string{"t01", "t10"} {
		rep, err := CheckLivelockFreedom(protocols.AgreementOneSided(side), CheckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != VerdictFree {
			t.Fatalf("agreement/%s: verdict %v, want free (%s)", side, rep.Verdict, rep.Reason)
		}
		if rep.ContiguousOnly {
			t.Fatal("agreement is unidirectional")
		}
	}
}

func TestAgreementBothPotentialLivelock(t *testing.T) {
	rep, err := CheckLivelockFreedom(protocols.AgreementBoth(), CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictPotentialLivelock {
		t.Fatalf("verdict %v, want potential-livelock", rep.Verdict)
	}
	if rep.Witness == nil || len(rep.Witness.TArcs) != 2 {
		t.Fatalf("witness = %+v", rep.Witness)
	}
	// And the potential livelock is real: explicit livelock at K=4.
	in := explicit.MustNewInstance(protocols.AgreementBoth(), 4)
	if in.FindLivelock() == nil {
		t.Fatal("explicit livelock expected at K=4")
	}
}

func TestGoudaAcharyaTrailFoundAndReal(t *testing.T) {
	rep, err := CheckLivelockFreedom(protocols.GoudaAcharya(), CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictPotentialLivelock {
		t.Fatalf("verdict %v, want potential-livelock (%s)", rep.Verdict, rep.Reason)
	}
	// The witness trail's t-arcs must be {t_ls, t_sl} as in Figure 8.
	names := map[string]bool{}
	for _, a := range rep.Witness.TArcs {
		names[a.Action] = true
	}
	if !names["t_ls"] || !names["t_sl"] {
		t.Fatalf("witness t-arcs = %s", FormatTArcs(protocols.GoudaAcharya().Compile(), rep.Witness.TArcs))
	}
}

func TestSumNotTwoAcceptedSetProvedFree(t *testing.T) {
	// {t21, t12, t01} — the paper's accepted candidate set.
	p := tableProtocol(t, "snt-accepted", 3, sntLegit, map[string]map[core.LocalState][]int{
		"t21": {enc2(3, 0, 2): {1}},
		"t12": {enc2(3, 1, 1): {2}},
		"t01": {enc2(3, 2, 0): {1}},
	})
	rep, err := CheckLivelockFreedom(p, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictFree {
		t.Fatalf("verdict %v, want free (%s)", rep.Verdict, rep.Reason)
	}
	// Cross-validate: no livelock and full convergence for K=3..7.
	for k := 3; k <= 7; k++ {
		in := explicit.MustNewInstance(p, k)
		if !in.CheckStrongConvergence().Converges {
			t.Fatalf("accepted sum-not-two set must converge at K=%d", k)
		}
	}
}

func TestSumNotTwoRejectedSetSpuriousTrail(t *testing.T) {
	// {t21, t10, t02} — rejected by the methodology, yet the trail is
	// spurious: there is no real livelock at K=3 (or anywhere). This is the
	// paper's demonstration that Theorem 5.14 is sufficient, not necessary.
	p := tableProtocol(t, "snt-rejected", 3, sntLegit, map[string]map[core.LocalState][]int{
		"t21": {enc2(3, 0, 2): {1}},
		"t10": {enc2(3, 1, 1): {0}},
		"t02": {enc2(3, 2, 0): {2}},
	})
	rep, err := CheckLivelockFreedom(p, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictPotentialLivelock {
		t.Fatalf("verdict %v, want potential-livelock (%s)", rep.Verdict, rep.Reason)
	}
	for k := 3; k <= 7; k++ {
		in := explicit.MustNewInstance(p, k)
		if in.FindLivelock() != nil {
			t.Fatalf("rejected set has a REAL livelock at K=%d — trail should be spurious", k)
		}
	}
}

func TestTwoColoringInconclusive(t *testing.T) {
	// Figure 11: resolving both illegitimate deadlocks 00 and 11 creates a
	// trail; the method cannot conclude livelock-freedom (and indeed SS
	// 2-coloring on unidirectional rings is impossible).
	p := tableProtocol(t, "coloring2+both", 2, colorLegit, map[string]map[core.LocalState][]int{
		"t01": {enc2(2, 0, 0): {1}},
		"t10": {enc2(2, 1, 1): {0}},
	})
	rep, err := CheckLivelockFreedom(p, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictPotentialLivelock {
		t.Fatalf("verdict %v, want potential-livelock", rep.Verdict)
	}
	// The potential livelock is real here: K=4 livelocks (e.g. 0101 wave).
	in := explicit.MustNewInstance(p, 4)
	if in.FindLivelock() == nil {
		t.Fatal("2-coloring with both corrections must livelock at K=4")
	}
}

func TestThreeColoringCyclicCandidatesFail(t *testing.T) {
	// Figure 9: the candidate set {t01, t12, t20} pseudo-livelocks into a
	// contiguous trail through the illegitimate states {00, 11, 22}.
	p := tableProtocol(t, "coloring3+cyc", 3, colorLegit, map[string]map[core.LocalState][]int{
		"t01": {enc2(3, 0, 0): {1}},
		"t12": {enc2(3, 1, 1): {2}},
		"t20": {enc2(3, 2, 2): {0}},
	})
	rep, err := CheckLivelockFreedom(p, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictPotentialLivelock {
		t.Fatalf("verdict %v, want potential-livelock", rep.Verdict)
	}
}

func TestEmptyProtocolTriviallyFree(t *testing.T) {
	rep, err := CheckLivelockFreedom(protocols.Coloring(3), CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictFree {
		t.Fatalf("empty protocol: verdict %v", rep.Verdict)
	}
}

func TestBidirectionalContiguousOnlyFlag(t *testing.T) {
	rep, err := CheckLivelockFreedom(protocols.MatchingA(), CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ContiguousOnly {
		t.Fatal("matchingA is bidirectional: ContiguousOnly must be set")
	}
	// 18 t-arcs exceed the default exact limit: coarse fallback.
	if rep.Verdict != VerdictUnknown && rep.Verdict != VerdictFree {
		t.Fatalf("unexpected verdict %v", rep.Verdict)
	}
}

func TestSelfEnablingRejectedAndTransformedVariant(t *testing.T) {
	// A protocol with a chained (self-enabling) action: (0,0) -> (0,1) where
	// (0,1) is enabled again, terminating at (0,2). CheckLivelockFreedom
	// must refuse; the Transformed variant must transform and verify.
	p := tableProtocol(t, "chain", 3, colorLegit, map[string]map[core.LocalState][]int{
		"a": {enc2(3, 0, 0): {1}},
		"b": {enc2(3, 0, 1): {2}},
	})
	if _, err := CheckLivelockFreedom(p, CheckOptions{}); err == nil {
		t.Fatal("self-enabling protocol must be rejected")
	}
	rep, q, err := CheckLivelockFreedomTransformed(p, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SelfDisabled || q == p {
		t.Fatal("transformation should have been applied")
	}
	if rep.Verdict != VerdictFree {
		t.Fatalf("verdict %v, want free (%s)", rep.Verdict, rep.Reason)
	}
}

func TestNonSelfTerminatingRejected(t *testing.T) {
	// Local cycle 00 -> 01 -> 00 cannot be transformed.
	p := tableProtocol(t, "cyc", 2, colorLegit, map[string]map[core.LocalState][]int{
		"a": {enc2(2, 0, 0): {1}},
		"b": {enc2(2, 0, 1): {0}},
	})
	if _, _, err := CheckLivelockFreedomTransformed(p, CheckOptions{}); err == nil {
		t.Fatal("expected error for non-self-terminating protocol")
	}
}

// TestTransformDoesNotPreserveLivelocks is a regression test for a finding
// of this reproduction: the paper's Assumption-2 transformation (Section 5)
// can REMOVE livelocks. This protocol (found by random search, seed 514
// trial 38) livelocks at K=3 — its livelock exploits a self-enabling chain
// whose mid-chain state is observed by the successor, and a collision that
// Lemma 5.5 rules out only for self-disabling protocols — while its
// self-disabled transform is livelock-free for the same K. Consequently a
// Free verdict on the transform must not be read as a verdict on the
// original, which is why CheckLivelockFreedom rejects self-enabling input.
func TestTransformDoesNotPreserveLivelocks(t *testing.T) {
	legitTable := map[core.LocalState]bool{
		enc2(3, 0, 0): true, enc2(3, 2, 1): true,
	}
	p := tableProtocol(t, "counterexample", 3,
		func(v core.View) bool { return legitTable[core.Encode(v, 3)] },
		map[string]map[core.LocalState][]int{
			"m": {
				enc2(3, 0, 0): {2}, // 00 -> 02
				enc2(3, 2, 0): {2}, // 20 -> 22
				enc2(3, 1, 1): {0}, // 11 -> 10
				enc2(3, 2, 1): {0}, // 21 -> 20 (self-enabling: 20 has a move)
				enc2(3, 1, 2): {1}, // 12 -> 11 (self-enabling: 11 has a move)
			},
		})
	if p.Compile().IsSelfDisabling() {
		t.Fatal("counterexample must be self-enabling")
	}
	inP := explicit.MustNewInstance(p, 3)
	if inP.FindLivelock() == nil {
		t.Fatal("original protocol must livelock at K=3")
	}
	rep, q, err := CheckLivelockFreedomTransformed(p, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictFree {
		t.Fatalf("transformed verdict = %v, want free", rep.Verdict)
	}
	inQ := explicit.MustNewInstance(q, 3)
	if inQ.FindLivelock() != nil {
		t.Fatal("transformed protocol must be livelock-free at K=3")
	}
	// The Free verdict is sound for q: check a few more sizes.
	for k := 4; k <= 6; k++ {
		if explicit.MustNewInstance(q, k).FindLivelock() != nil {
			t.Fatalf("transformed protocol livelocks at K=%d, contradicting the Free verdict", k)
		}
	}
}

// --- soundness property: Free verdicts never contradict explicit search -------

// Windows [-2,0] and [-3,0] are drawn too: Theorem 5.14 proves nothing
// there, so a Free verdict may rest only on window-independent grounds.
// [-3,0] draws are the costliest to search (up to 2^16 t-arc subsets), and
// a search that trusted the theorem there failed within six draws, so
// fewer of them are drawn.
func TestLivelockFreedomSoundnessRandom(t *testing.T) {
	for _, w := range []struct{ lo, trials int }{{-1, 200}, {-2, 200}, {-3, 50}} {
		lo := w.lo
		rng := rand.New(rand.NewSource(514))
		checked, free := 0, 0
		for trial := 0; trial < w.trials; trial++ {
			p := protogen.Random(rng, protogen.Options{Lo: lo, SelfDisabling: true, MovePercent: 70})
			rep, err := CheckLivelockFreedom(p, CheckOptions{})
			if err != nil {
				t.Fatalf("window [%d,0] trial %d: %v", lo, trial, err)
			}
			checked++
			if rep.Verdict != VerdictFree {
				continue
			}
			free++
			for k := 2; k <= 6; k++ {
				in, err := explicit.NewInstance(p, k)
				if err != nil {
					t.Fatal(err)
				}
				if c := in.FindLivelock(); c != nil {
					t.Fatalf("window [%d,0] trial %d: UNSOUND: verdict free but K=%d livelock %s\nreason: %s",
						lo, trial, k, in.FormatCycle(c), rep.Reason)
				}
			}
		}
		if lo == -1 && (checked < 50 || free < 10) {
			t.Fatalf("property test too weak: checked=%d free=%d", checked, free)
		}
	}
}

// --- precedence / permutation tests (Figures 5 and 6) ------------------------

func TestDependent(t *testing.T) {
	if !Dependent(4, 1, 1) || !Dependent(4, 1, 2) || !Dependent(4, 2, 1) || !Dependent(4, 0, 3) {
		t.Fatal("adjacent/equal must be dependent")
	}
	if Dependent(4, 0, 2) || Dependent(4, 1, 3) {
		t.Fatal("opposite processes on K=4 are independent")
	}
}

func TestFigure5PrecedenceRelation(t *testing.T) {
	// The paper's Example 5.2 schedule at K=4:
	// Sch = <t01@P1, t10@P0, t01@P2, t01@P3, t10@P1, t01@P0, t10@P2, t10@P3>.
	procs := []int{1, 0, 2, 3, 1, 0, 2, 3}
	dag := DependencyDAG(4, procs)
	pairs := IndependentPairs(dag)
	// "Since we have only three pairs of independent local transitions, the
	// precedence relation allows 8 = 2^3 possible precedence-preserving
	// permutations of Sch."
	if len(pairs) != 3 {
		t.Fatalf("independent pairs = %v (%d), want 3", pairs, len(pairs))
	}
	exts, err := LinearExtensions(dag, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 8 {
		t.Fatalf("linear extensions = %d, want 8", len(exts))
	}
	// The identity must be among them.
	identity := []int{0, 1, 2, 3, 4, 5, 6, 7}
	found := false
	for _, e := range exts {
		if reflect.DeepEqual(e, identity) {
			found = true
		}
	}
	if !found {
		t.Fatal("identity permutation missing")
	}
}

// Figure 6 / Lemma 5.11: every precedence-preserving permutation of the
// paper's schedule is itself a livelock.
func TestPrecedencePreservingPermutationsAreLivelocks(t *testing.T) {
	in := explicit.MustNewInstance(protocols.AgreementBoth(), 4)
	start := in.Encode([]int{1, 0, 0, 0})
	procs := []int{1, 0, 2, 3, 1, 0, 2, 3}
	dag := DependencyDAG(4, procs)
	exts, err := LinearExtensions(dag, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, perm := range exts {
		sched := PermuteSchedule(procs, perm)
		states, err := in.Computation(start, sched)
		if err != nil {
			t.Fatalf("perm %v not executable: %v", perm, err)
		}
		if states[len(states)-1] != start {
			t.Fatalf("perm %v does not return to start", perm)
		}
		if !in.IsLivelock(states[:len(states)-1]) {
			t.Fatalf("perm %v is not a livelock", perm)
		}
	}
}

func TestLinearExtensionsLimit(t *testing.T) {
	// 1 + 8 incomparable steps after step 0 -> 8! extensions > limit.
	procs := make([]int, 9)
	for i := range procs {
		procs[i] = (2 * i) % 32 // far apart on a K=32 ring
	}
	dag := DependencyDAG(32, procs)
	if _, err := LinearExtensions(dag, 100); err == nil {
		t.Fatal("expected limit error")
	}
}

func TestLinearExtensionsStepZeroNotMinimal(t *testing.T) {
	// Step 1 precedes step 0 is impossible by construction (edges only
	// i<j), so craft a DAG manually via DependencyDAG semantics: step 0
	// always minimal. Validate the error path with a hand-built graph.
	dag := DependencyDAG(3, []int{0, 1})
	// Manually reverse: build graph with edge 1->0.
	g := dag.Clone()
	_ = g
	// DependencyDAG can't produce indeg[0] != 0; call LinearExtensions on a
	// crafted graph instead.
	gg := dagWithEdge10()
	if _, err := LinearExtensions(gg, 0); err == nil {
		t.Fatal("expected error when step 0 is not minimal")
	}
}

func TestPermuteSchedule(t *testing.T) {
	got := PermuteSchedule([]int{5, 6, 7}, []int{0, 2, 1})
	if !reflect.DeepEqual(got, []int{5, 7, 6}) {
		t.Fatalf("PermuteSchedule = %v", got)
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictFree.String() != "livelock-free" ||
		VerdictPotentialLivelock.String() != "potential-livelock" ||
		VerdictUnknown.String() != "unknown" {
		t.Fatal("verdict strings wrong")
	}
	if Verdict(99).String() == "" {
		t.Fatal("unknown verdict must still render")
	}
}

func TestFormatTArcs(t *testing.T) {
	sys := protocols.AgreementBoth().Compile()
	s := FormatTArcs(sys, sys.Trans)
	if s != "{t01:10->11, t10:01->00}" {
		t.Fatalf("FormatTArcs = %q", s)
	}
}

func TestSArcsAndTArcsAccessors(t *testing.T) {
	l := Build(protocols.AgreementBoth().Compile())
	if l.SArcs().N() != 4 {
		t.Fatal("SArcs wrong")
	}
	if len(l.TArcs()) != 2 {
		t.Fatal("TArcs wrong")
	}
	if l.System() == nil || l.RCG() == nil {
		t.Fatal("accessors nil")
	}
}

// Lemma 5.11 applied to a livelock DISCOVERED by the model checker (not the
// paper's hand-written one): extract its schedule, build the precedence
// relation, and replay every precedence-preserving permutation as a
// livelock.
func TestPermutationLemmaOnDiscoveredLivelock(t *testing.T) {
	in := explicit.MustNewInstance(protocols.GoudaAcharya(), 5)
	cycle := in.FindLivelock()
	if cycle == nil {
		t.Fatal("fixture: livelock expected")
	}
	procs, err := ScheduleFromCycle(in.K(), in.Decode, cycle)
	if err != nil {
		t.Fatal(err)
	}
	dag := DependencyDAG(in.K(), procs)
	exts, err := LinearExtensions(dag, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) == 0 {
		t.Fatal("at least the identity extension must exist")
	}
	for _, perm := range exts {
		sched := PermuteSchedule(procs, perm)
		states, err := in.Computation(cycle[0], sched)
		if err != nil {
			t.Fatalf("perm %v not executable: %v", perm, err)
		}
		if states[len(states)-1] != cycle[0] {
			t.Fatalf("perm %v does not close the cycle", perm)
		}
		if !in.IsLivelock(states[:len(states)-1]) {
			t.Fatalf("perm %v is not a livelock", perm)
		}
	}
	t.Logf("verified %d precedence-preserving permutations of a %d-step livelock", len(exts), len(procs))
}

func TestScheduleFromCycleErrors(t *testing.T) {
	in := explicit.MustNewInstance(protocols.AgreementBoth(), 4)
	// A "cycle" whose consecutive states differ in two positions.
	bad := []uint64{in.Encode([]int{0, 0, 1, 1}), in.Encode([]int{1, 1, 1, 1})}
	if _, err := ScheduleFromCycle(4, in.Decode, bad); err == nil {
		t.Fatal("two-position step must be rejected")
	}
	same := []uint64{in.Encode([]int{0, 1, 0, 1})}
	if _, err := ScheduleFromCycle(4, in.Decode, same); err == nil {
		t.Fatal("self-loop step must be rejected")
	}
}
