package verify

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"paramring/internal/core"
	"paramring/internal/invariant"
	"paramring/internal/protocols"
)

// TestInvariantLaneProvesMatchingA is the lane's reason to exist: matchingA
// is bidirectional with 18 t-arcs, so Theorem 5.14 is inconclusive and only
// a bounded explicit search was available before. The invariant lane's
// termination potential settles livelock-freedom for EVERY K, with a
// certificate, and the explicit engine arbitrates at small sizes.
func TestInvariantLaneProvesMatchingA(t *testing.T) {
	rep, err := Check(protocols.MatchingA(), Options{Invariant: true, CrossValidateMaxK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Invariant || rep.InvariantSkipped != "" {
		t.Fatalf("lane did not run: %+v", rep)
	}
	if rep.InvariantLivelock != Proved || rep.Livelock != Proved {
		t.Fatalf("livelock: lane=%v overall=%v", rep.InvariantLivelock, rep.Livelock)
	}
	if !rep.LivelockProvedByInvariant {
		t.Fatal("provenance flag not set")
	}
	if !rep.SelfStabilizing {
		t.Fatalf("matchingA stabilizes for every K once the lane completes the proof: %s", rep.Summary())
	}
	if len(rep.Disagreements) != 0 {
		t.Fatalf("disagreements: %v", rep.Disagreements)
	}
	if rep.InvariantCertBytes <= 0 || rep.InvariantCount <= 0 {
		t.Fatalf("certificate stats missing: %+v", rep)
	}
	if rep.InvariantDetail == nil || rep.InvariantDetail.Certificate == nil {
		t.Fatal("detail/certificate missing")
	}
	if !strings.Contains(rep.Summary(), "proved by invariant lane") ||
		!strings.Contains(rep.Summary(), "invariant lane: deadlock proved") {
		t.Fatalf("summary: %s", rep.Summary())
	}
}

// TestInvariantLaneCompletesMIS: Theorem 5.14 proves MIS contiguous-only;
// the lane's all-interleaving termination argument completes it, flipping
// the facade's SelfStabilizing headline that TestProtocolMISContiguousOnly
// pins to false without the lane.
func TestInvariantLaneCompletesMIS(t *testing.T) {
	rep, err := Check(protocols.MaxIndependentSet(), Options{Invariant: true, CrossValidateMaxK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ContiguousOnly || rep.Livelock != Proved {
		t.Fatalf("theorem side changed: %s", rep.Summary())
	}
	if rep.InvariantLivelock != Proved || !rep.LivelockProvedByInvariant {
		t.Fatalf("lane: %v proved-by=%v", rep.InvariantLivelock, rep.LivelockProvedByInvariant)
	}
	if !rep.SelfStabilizing {
		t.Fatalf("contiguous-only gap closed by the lane, SelfStabilizing must hold: %s", rep.Summary())
	}
	if len(rep.Disagreements) != 0 {
		t.Fatalf("disagreements: %v", rep.Disagreements)
	}
}

// TestInvariantLaneAgreesAcrossZoo runs every zoo protocol with the lane
// and explicit cross-validation on: wherever two lanes are both conclusive
// they must agree — any Disagreements entry is a tool bug by construction.
func TestInvariantLaneAgreesAcrossZoo(t *testing.T) {
	zoo := protocols.All()
	names := make([]string, 0, len(zoo))
	for n := range zoo {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		rep, err := Check(zoo[name], Options{Invariant: true, CrossValidateMaxK: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Invariant {
			t.Errorf("%s: lane skipped: %s", name, rep.InvariantSkipped)
			continue
		}
		if len(rep.Disagreements) != 0 {
			t.Errorf("%s: lanes disagree: %v", name, rep.Disagreements)
		}
		if rep.InvariantDeadlock != rep.Deadlock {
			t.Errorf("%s: deadlock lane=%v theorem=%v (deadlock lanes are both exact)",
				name, rep.InvariantDeadlock, rep.Deadlock)
		}
	}
}

// TestInvariantLaneDisagreementInjection is the deliberate-miscompilation
// drill: the lane is swapped for a broken stand-in and verify.Check must
// surface the conflict as a tool-bug diagnostic — never silently prefer
// either lane's verdict.
func TestInvariantLaneDisagreementInjection(t *testing.T) {
	orig := invariantAnalyze
	defer func() { invariantAnalyze = orig }()

	t.Run("miscompiled fixture fails certificate re-check", func(t *testing.T) {
		// The lane analyzes a different protocol than the rest of the
		// pipeline — the classic miscompiled-front-end failure mode. The
		// certificate cannot re-validate against the real protocol.
		invariantAnalyze = func(ctx context.Context, _ *core.Protocol, o invariant.Options) (*invariant.Report, error) {
			return invariant.Analyze(ctx, protocols.All()["matching"], o)
		}
		rep, err := Check(protocols.SumNotTwoSolution(), Options{Invariant: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Disagreements) == 0 {
			t.Fatal("mismatched certificate accepted silently")
		}
		if !strings.Contains(rep.Disagreements[0], "certificate failed independent re-check") {
			t.Fatalf("diagnostic: %v", rep.Disagreements)
		}
		if rep.InvariantDeadlock != Inconclusive || rep.InvariantLivelock != Inconclusive {
			t.Fatalf("unchecked lane verdicts survived: %+v", rep)
		}
		if rep.Deadlock != Proved || rep.Livelock != Proved {
			t.Fatalf("theorem verdicts must be untouched: %s", rep.Summary())
		}
		if rep.SelfStabilizing {
			t.Fatal("no headline claim may survive a lane conflict")
		}
	})

	t.Run("flipped verdict conflicts with Theorem 4.2", func(t *testing.T) {
		invariantAnalyze = func(ctx context.Context, p *core.Protocol, o invariant.Options) (*invariant.Report, error) {
			rep, err := invariant.Analyze(ctx, p, o)
			if err != nil {
				return nil, err
			}
			rep.Deadlock = invariant.Fails
			return rep, nil
		}
		rep, err := Check(protocols.SumNotTwoSolution(), Options{Invariant: true})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range rep.Disagreements {
			if strings.Contains(d, "Theorem 4.2 says proved, invariant lane says refuted") {
				found = true
			}
		}
		if !found {
			t.Fatalf("conflicting conclusive deadlock verdicts not rendered side by side: %v", rep.Disagreements)
		}
		if rep.Deadlock != Proved {
			t.Fatalf("theorem verdict silently replaced: %v", rep.Deadlock)
		}
		if rep.SelfStabilizing {
			t.Fatal("no headline claim may survive a lane conflict")
		}
	})

	t.Run("forged livelock Holds is caught by theorem and explicit engine", func(t *testing.T) {
		// agreement-both has a real livelock; forging a lane Holds must be
		// contradicted both by Theorem 5.14's confirmed witness and by the
		// explicit search during cross-validation.
		invariantAnalyze = func(ctx context.Context, p *core.Protocol, o invariant.Options) (*invariant.Report, error) {
			rep, err := invariant.Analyze(ctx, p, o)
			if err != nil {
				return nil, err
			}
			rep.Livelock = invariant.Holds
			return rep, nil
		}
		rep, err := Check(protocols.AgreementBoth(), Options{Invariant: true, CrossValidateMaxK: 5})
		if err != nil {
			t.Fatal(err)
		}
		var laneVsTheorem, laneVsExplicit bool
		for _, d := range rep.Disagreements {
			if strings.Contains(d, "Theorem 5.14 says refuted, invariant lane says proved") {
				laneVsTheorem = true
			}
			if strings.Contains(d, "explicit livelock contradicts invariant-lane Holds") {
				laneVsExplicit = true
			}
		}
		if !laneVsTheorem || !laneVsExplicit {
			t.Fatalf("forged Holds not fully arbitrated (theorem=%v explicit=%v): %v",
				laneVsTheorem, laneVsExplicit, rep.Disagreements)
		}
		if rep.Livelock != Refuted {
			t.Fatalf("forged lane verdict silently adopted: %v", rep.Livelock)
		}
	})
}

// TestInvariantLaneRefutesSmallRing: a protocol whose only livelock lives on
// the size-2 ring. The theorems are silent (bidirectional window), the lane
// refutes with a concrete certified witness, and the facade adopts it.
func TestInvariantLaneRefutesSmallRing(t *testing.T) {
	p := core.MustNew(core.Config{
		Name:   "flip-flop",
		Domain: 2,
		Lo:     -1,
		Hi:     1,
		Legit:  func(v core.View) bool { return v[1] == 0 },
		Actions: []core.Action{{
			Name:  "flip",
			Guard: func(v core.View) bool { return v[2] == 1 },
			Next:  func(v core.View) []int { return []int{1 - v[1]} },
		}},
	})
	rep, err := Check(p, Options{Invariant: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InvariantLivelock != Refuted {
		t.Fatalf("lane livelock = %v, want refuted", rep.InvariantLivelock)
	}
	if rep.Livelock != Refuted || rep.LivelockWitnessK != 2 {
		t.Fatalf("facade did not adopt the certified witness: %v K=%d", rep.Livelock, rep.LivelockWitnessK)
	}
	if len(rep.Disagreements) != 0 {
		t.Fatalf("disagreements: %v", rep.Disagreements)
	}
}

// TestInvariantLaneWorkersIdentical extends the determinism contract to the
// lane: reports and canonical certificates must be byte-identical whether
// the explicit side runs sequentially or fanned out.
func TestInvariantLaneWorkersIdentical(t *testing.T) {
	for _, name := range []string{"matchingA", "mis", "agreement-both"} {
		p := protocols.All()[name]
		run := func(workers int) *Report {
			rep, err := Check(p, Options{Invariant: true, CrossValidateMaxK: 4, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			return rep
		}
		seq, par := run(1), run(8)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s: report diverged across worker counts\nseq: %+v\npar: %+v", name, seq, par)
		}
		if !bytes.Equal(seq.InvariantDetail.Certificate.Canon(), par.InvariantDetail.Certificate.Canon()) {
			t.Fatalf("%s: certificate bytes diverged across worker counts", name)
		}
	}
}

func TestInvariantLaneContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CheckCtx(ctx, protocols.MatchingA(), Options{Invariant: true}); err == nil {
		t.Fatal("cancelled context must abort the lane")
	}
}

// TestInvariantLaneGuard: the local-state governor skips the lane with a
// reason instead of failing the whole run.
func TestInvariantLaneGuard(t *testing.T) {
	rep, err := Check(protocols.MatchingA(), Options{Invariant: true, InvariantMaxStates: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invariant || rep.InvariantSkipped == "" {
		t.Fatalf("guard did not skip the lane: %+v", rep)
	}
	if rep.Deadlock != Proved {
		t.Fatalf("theorem lanes must still run: %s", rep.Summary())
	}
	if !strings.Contains(rep.Summary(), "invariant lane skipped") {
		t.Fatalf("summary: %s", rep.Summary())
	}
}
