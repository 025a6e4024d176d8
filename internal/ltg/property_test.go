package ltg

import (
	"math/rand"
	"testing"

	"paramring/internal/core"
	"paramring/internal/explicit"
	"paramring/internal/protogen"
)

// Soundness of Theorem 5.14's checker under nondeterministic actions: a
// Free verdict must never coexist with an explicit livelock at any checked
// ring size. This widens the deterministic soundness test with protogen's
// nondeterministic generator, on windows [-1,0], [-2,0] and [-3,0] (fewer
// of the costly [-3,0] draws, as in TestLivelockFreedomSoundnessRandom).
func TestLivelockFreedomSoundnessNondetRandom(t *testing.T) {
	for _, w := range []struct{ lo, trials int }{{-1, 250}, {-2, 250}, {-3, 50}} {
		lo := w.lo
		rng := rand.New(rand.NewSource(60321))
		free, flagged := 0, 0
		for trial := 0; trial < w.trials; trial++ {
			p := protogen.Random(rng, protogen.Options{
				Lo:            lo,
				SelfDisabling: true,
				MovePercent:   65,
				Nondet:        true,
			})
			rep, err := CheckLivelockFreedom(p, CheckOptions{})
			if err != nil {
				t.Fatalf("window [%d,0] trial %d: %v", lo, trial, err)
			}
			if rep.Verdict != VerdictFree {
				flagged++
				continue
			}
			free++
			for k := 2; k <= 6; k++ {
				in, err := explicit.NewInstance(p, k)
				if err != nil {
					t.Fatal(err)
				}
				if c := in.FindLivelock(); c != nil {
					t.Fatalf("window [%d,0] trial %d: UNSOUND: free verdict but K=%d livelock %s",
						lo, trial, k, in.FormatCycle(c))
				}
			}
		}
		if lo == -1 && (free < 40 || flagged < 10) {
			t.Fatalf("distribution too skewed to be meaningful: free=%d flagged=%d", free, flagged)
		}
	}
}

// ConfirmWitness consistency: whenever it confirms, the returned cycle is a
// genuine livelock of the original protocol at the reported K.
func TestConfirmWitnessCycleVerifiesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7777))
	confirmed, spurious := 0, 0
	for trial := 0; trial < 150; trial++ {
		p := protogen.Random(rng, protogen.Options{
			SelfDisabling: true,
			MovePercent:   70,
		})
		rep, err := CheckLivelockFreedom(p, CheckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != VerdictPotentialLivelock {
			continue
		}
		conf, err := ConfirmWitness(p, rep.Witness, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !conf.Confirmed {
			spurious++
			continue
		}
		confirmed++
		in, err := explicit.NewInstance(p, conf.K)
		if err != nil {
			t.Fatal(err)
		}
		if !in.IsLivelock(conf.Cycle) {
			t.Fatalf("trial %d: confirmation cycle is not a livelock of the original protocol", trial)
		}
	}
	if confirmed == 0 {
		t.Fatal("property never exercised a confirmed witness")
	}
	t.Logf("witness outcomes: %d confirmed, %d spurious (the sufficient-not-necessary gap)", confirmed, spurious)
}

// Pseudo-livelock necessity: when an explicit livelock exists, the local
// transitions actually executed along it must form a pseudo-livelock — the
// forward direction of Theorem 5.14's condition 2, checked on concrete
// livelocks of random protocols. A process in a livelock repeats its write
// sequence, so the used t-arcs' write projection must be all-on-cycles.
func TestLivelockTArcsFormPseudoLivelockRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	exercised := 0
	for trial := 0; trial < 300 && exercised < 25; trial++ {
		p := protogen.Random(rng, protogen.Options{
			SelfDisabling: true,
			MovePercent:   75,
		})
		sys := p.Compile()
		for k := 3; k <= 5; k++ {
			in, err := explicit.NewInstance(p, k)
			if err != nil {
				t.Fatal(err)
			}
			cycle := in.FindLivelock()
			if cycle == nil {
				continue
			}
			exercised++
			used := map[core.LocalTransition]bool{}
			for i := range cycle {
				from, to := cycle[i], cycle[(i+1)%len(cycle)]
				for _, gt := range in.SuccessorsDetailed(from) {
					if gt.To != to {
						continue
					}
					src := p.Encode(in.View(from, gt.Process))
					dst := p.Encode(in.View(to, gt.Process))
					for _, lt := range sys.Trans {
						if lt.Src == src && lt.Dst == dst {
							used[lt] = true
						}
					}
				}
			}
			usedTrans := make([]core.LocalTransition, 0, len(used))
			for lt := range used {
				usedTrans = append(usedTrans, lt)
			}
			if !FormsPseudoLivelock(sys, usedTrans) {
				t.Fatalf("trial %d K=%d: livelock t-arcs %s do not form a pseudo-livelock",
					trial, k, FormatTArcs(sys, usedTrans))
			}
			break
		}
	}
	if exercised < 10 {
		t.Fatalf("property too weak: only %d livelocks exercised", exercised)
	}
}
