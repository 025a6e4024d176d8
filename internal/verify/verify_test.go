package verify

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"paramring/internal/core"
	"paramring/internal/explicit"
	"paramring/internal/protocols"
	"paramring/internal/protogen"
)

func TestProtocolAgreementOneSided(t *testing.T) {
	rep, err := Check(protocols.AgreementOneSided("t01"), Options{CrossValidateMaxK: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deadlock != Proved || rep.Livelock != Proved {
		t.Fatalf("verdicts: %+v", rep)
	}
	if !rep.SelfStabilizing {
		t.Fatal("one-sided agreement is self-stabilizing for every K")
	}
	if len(rep.Disagreements) != 0 {
		t.Fatalf("disagreements: %v", rep.Disagreements)
	}
	if !strings.Contains(rep.Summary(), "SELF-STABILIZING") {
		t.Fatalf("summary: %s", rep.Summary())
	}
}

func TestProtocolAgreementBothRefuted(t *testing.T) {
	rep, err := Check(protocols.AgreementBoth(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deadlock != Proved {
		t.Fatal("agreement-both has no illegitimate deadlocks")
	}
	if rep.Livelock != Refuted {
		t.Fatalf("livelock verdict %v, want refuted (the trail is real)", rep.Livelock)
	}
	if rep.LivelockWitnessK < 2 {
		t.Fatalf("witness K = %d", rep.LivelockWitnessK)
	}
	if rep.SelfStabilizing {
		t.Fatal("must not claim stabilization")
	}
}

func TestProtocolMatchingBDeadlockRefuted(t *testing.T) {
	rep, err := Check(protocols.MatchingB(), Options{CrossValidateMaxK: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deadlock != Refuted || rep.DeadlockWitnessK != 4 {
		t.Fatalf("deadlock: %v witnessK=%d", rep.Deadlock, rep.DeadlockWitnessK)
	}
	if rep.LivelockSkipped == "" {
		t.Fatal("matchingB is self-enabling: Theorem 5.14 must be reported inapplicable")
	}
	if len(rep.Disagreements) != 0 {
		t.Fatalf("disagreements: %v", rep.Disagreements)
	}
	if !strings.Contains(rep.Summary(), "witness ring size 4") {
		t.Fatalf("summary: %s", rep.Summary())
	}
}

func TestProtocolSumNotTwoSpuriousInconclusiveVsAcceptedProved(t *testing.T) {
	// The accepted solution proves clean.
	rep, err := Check(protocols.SumNotTwoSolution(), Options{CrossValidateMaxK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SelfStabilizing {
		t.Fatalf("sum-not-two solution must verify: %s", rep.Summary())
	}
}

func TestProtocolMISContiguousOnly(t *testing.T) {
	rep, err := Check(protocols.MaxIndependentSet(), Options{CrossValidateMaxK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deadlock != Proved || rep.Livelock != Proved {
		t.Fatalf("verdicts: %s", rep.Summary())
	}
	if !rep.ContiguousOnly {
		t.Fatal("MIS is bidirectional: ContiguousOnly must be set")
	}
	if rep.SelfStabilizing {
		t.Fatal("bidirectional Proved covers contiguous livelocks only; the facade must not over-claim")
	}
}

func TestStatusString(t *testing.T) {
	if Proved.String() != "proved" || Refuted.String() != "refuted" || Inconclusive.String() != "inconclusive" {
		t.Fatal("status strings")
	}
	if Status(42).String() == "" {
		t.Fatal("unknown status renders")
	}
}

// The facade must never over-claim: whenever it reports SelfStabilizing,
// exhaustive checking at sampled ring sizes must agree. Every window shape
// the lanes treat differently is drawn 1,500 times, with the invariant
// lane on. Before Theorem 5.14 was confined to window [-1,0], window
// [-2,0] over-claimed about once in 375 draws, which 1,500 draws of a
// stream miss with probability 2%.
func TestProtocolNeverOverClaimsRandom(t *testing.T) {
	claimed := 0
	for _, w := range [][2]int{{-1, 0}, {-2, 0}, {-3, 0}, {-1, 1}, {0, 1}} {
		rng := rand.New(rand.NewSource(321))
		for trial := 0; trial < 1500; trial++ {
			p := protogen.Random(rng, protogen.Options{Domain: 2, Lo: w[0], Hi: w[1], SelfDisabling: true, MovePercent: 50})
			rep, err := Check(p, Options{Invariant: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.SelfStabilizing {
				continue
			}
			claimed++
			for k := 2; k <= 6; k++ {
				in, err := explicit.NewInstance(p, k)
				if err != nil {
					t.Fatal(err)
				}
				cr := in.CheckStrongConvergence()
				if !cr.Converges {
					t.Fatalf("window %v trial %d: facade claims stabilization but K=%d fails: %+v", w, trial, k, cr)
				}
			}
		}
	}
	if claimed < 15 {
		t.Fatalf("too few stabilization claims to be meaningful: %d", claimed)
	}
}

// TestWideLeftWindowNoTheoremProof: Theorem 5.14 proves nothing on a
// left-only window wider than [-1,0]. Draw 125 of the d=2 [-2,0] stream
// (transitions 100 -> 101 and 001 -> 000) and draw 1703 of the [-3,0]
// stream, both counted from 0, livelock, yet the trail search finds no
// trail in either. Under lrserved's default request the facade must not
// call them self-stabilizing.
func TestWideLeftWindowNoTheoremProof(t *testing.T) {
	for _, c := range []struct{ lo, draw, livelockK int }{{-2, 125, 5}, {-3, 1703, 4}} {
		rng := rand.New(rand.NewSource(1))
		var p *core.Protocol
		for i := 0; i <= c.draw; i++ {
			p = protogen.Random(rng, protogen.Options{Domain: 2, Lo: c.lo, Hi: 0, SelfDisabling: true, MovePercent: 50})
		}
		if k, err := explicit.SmallestLivelockK(context.Background(), p, 7); err != nil || k != c.livelockK {
			t.Fatalf("window [%d,0] draw %d: smallest livelocking K = %d (%v), want %d", c.lo, c.draw, k, err, c.livelockK)
		}
		rep, err := Check(p, RequestOptions{}.Normalize().EngineOptions(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		if rep.SelfStabilizing || rep.Livelock == Proved {
			t.Errorf("window [%d,0] draw %d: livelock %v, self-stabilizing %v; it livelocks at K=%d", c.lo, c.draw, rep.Livelock, rep.SelfStabilizing, c.livelockK)
		}
		if rep.Livelock != Inconclusive || !strings.Contains(rep.LivelockDetail.Reason, "Lemma 5.2") {
			t.Errorf("window [%d,0] draw %d: livelock %v, reason %q; want inconclusive with the reason", c.lo, c.draw, rep.Livelock, rep.LivelockDetail.Reason)
		}
	}
}

func TestBoundedFallbackResolvesMatchingA(t *testing.T) {
	// matchingA's Theorem 5.14 check is inconclusive (bidirectional, 18
	// t-arcs); the bounded fallback certifies livelock-freedom up to K=6.
	rep, err := Check(protocols.MatchingA(), Options{BoundedFallbackMaxK: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Livelock != Inconclusive || rep.LivelockBoundedFreeK != 6 {
		t.Fatalf("livelock=%v boundedFreeK=%d", rep.Livelock, rep.LivelockBoundedFreeK)
	}
	if !strings.Contains(rep.Summary(), "no livelock up to K=6") {
		t.Fatalf("summary: %s", rep.Summary())
	}
}

func TestBoundedFallbackRefutesMatchingBStyleLivelock(t *testing.T) {
	// matchingB is self-enabling (Theorem 5.14 inapplicable); Gouda-Acharya
	// has an unconfirmed... actually confirmed witness. Use a bidirectional
	// livelocking fixture: the coloring2 resolution livelocks at K=4, but
	// it is unidirectional and gets Refuted via ConfirmWitness already.
	// matchingB exercises the LivelockSkipped + fallback path:
	rep, err := Check(protocols.MatchingB(), Options{BoundedFallbackMaxK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LivelockSkipped == "" {
		t.Fatal("matchingB must report Theorem 5.14 inapplicable")
	}
	// No livelock exists for matchingB at K<=5 (its failures are deadlocks).
	if rep.LivelockBoundedFreeK != 5 {
		t.Fatalf("boundedFreeK=%d", rep.LivelockBoundedFreeK)
	}
}

// TestWorkersReportIdentical is the facade half of the determinism
// contract: the full report — verdicts, witness sizes, cross-validation
// messages, bounded-fallback results — must be byte-identical whether the
// explicit engine runs sequentially or fanned out.
func TestWorkersReportIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"agreement-one-sided", Options{CrossValidateMaxK: 6}},
		{"matchingA", Options{BoundedFallbackMaxK: 6}},
		{"matchingB", Options{CrossValidateMaxK: 5, BoundedFallbackMaxK: 5}},
		{"gouda-acharya", Options{CrossValidateMaxK: 6}},
	} {
		p := protocols.All()[tc.name]
		if p == nil {
			switch tc.name {
			case "agreement-one-sided":
				p = protocols.AgreementOneSided("t01")
			case "matchingA":
				p = protocols.MatchingA()
			case "matchingB":
				p = protocols.MatchingB()
			case "gouda-acharya":
				p = protocols.GoudaAcharya()
			}
		}
		seqOpts := tc.opts
		seqOpts.Workers = 1
		seq, err := Check(p, seqOpts)
		if err != nil {
			t.Fatalf("%s seq: %v", tc.name, err)
		}
		parOpts := tc.opts
		parOpts.Workers = 4
		par, err := Check(p, parOpts)
		if err != nil {
			t.Fatalf("%s par: %v", tc.name, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s: report diverged\nseq: %+v\npar: %+v", tc.name, seq, par)
		}
	}
}
