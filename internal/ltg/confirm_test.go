package ltg

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"paramring/internal/core"
	"paramring/internal/explicit"
	"paramring/internal/protocols"
	"paramring/internal/protogen"
)

func TestConfirmWitnessRealLivelock(t *testing.T) {
	// agreement-both's trail corresponds to a real livelock (K=4 is the
	// paper's; K=2 is the smallest: 01 -> 11? no wait — explicit will find
	// the smallest cyclable size).
	rep, err := CheckLivelockFreedom(protocols.AgreementBoth(), CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictPotentialLivelock {
		t.Fatal("fixture changed")
	}
	conf, err := ConfirmWitness(protocols.AgreementBoth(), rep.Witness, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !conf.Confirmed {
		t.Fatalf("agreement-both witness must confirm: %+v", conf)
	}
	if conf.K < 2 || len(conf.Cycle) == 0 {
		t.Fatalf("confirmation incomplete: %+v", conf)
	}
}

func TestConfirmWitnessGoudaAcharya(t *testing.T) {
	rep, err := CheckLivelockFreedom(protocols.GoudaAcharya(), CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	conf, err := ConfirmWitness(protocols.GoudaAcharya(), rep.Witness, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !conf.Confirmed {
		t.Fatal("Gouda-Acharya witness must confirm (real livelock)")
	}
}

// The paper's sum-not-two reconstruction failure, mechanized: the rejected
// set {t21,t10,t02} yields a trail whose reconstruction fails at every
// checked ring size.
func TestConfirmWitnessSpuriousSumNotTwo(t *testing.T) {
	enc := func(a, b int) core.LocalState { return core.Encode(core.View{a, b}, 3) }
	p, err := core.NewFromTable(core.Config{
		Name: "snt-rejected", Domain: 3, Lo: -1, Hi: 0,
		Legit: func(v core.View) bool { return v[0]+v[1] != 2 },
	}, []core.TableAction{
		{Name: "t21", Moves: map[core.LocalState][]int{enc(0, 2): {1}}},
		{Name: "t10", Moves: map[core.LocalState][]int{enc(1, 1): {0}}},
		{Name: "t02", Moves: map[core.LocalState][]int{enc(2, 0): {2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckLivelockFreedom(p, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictPotentialLivelock {
		t.Fatal("fixture changed")
	}
	conf, err := ConfirmWitness(p, rep.Witness, 7)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Confirmed {
		t.Fatalf("the paper's spurious trail must not reconstruct: %+v", conf)
	}
	if conf.MaxKChecked != 7 {
		t.Fatalf("bound bookkeeping wrong: %+v", conf)
	}
}

func TestConfirmWitnessNil(t *testing.T) {
	if _, err := ConfirmWitness(protocols.AgreementBoth(), nil, 4); err == nil {
		t.Fatal("nil witness must error")
	}
}

// TestConfirmWitnessMatchesInstances holds ConfirmWitnessCtx, which finds
// the smallest livelocking K on the quotient by rotation, to the per-K
// NewInstance + FindLivelock loop it replaced: on random protocols over
// windows [-1,0], [-2,0] and [-1,1], deterministic and not, with one and
// two workers, Confirmed, K, Cycle and MaxKChecked must all be equal.
func TestConfirmWitnessMatchesInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	windows := [][2]int{{-1, 0}, {-2, 0}, {-1, 1}}
	confirmed, spurious := 0, 0
	perWindow := map[[2]int]int{}
	for trial := 0; trial < 300; trial++ {
		win := windows[trial%len(windows)]
		p := protogen.Random(rng, protogen.Options{
			Domain:        2 + trial%2,
			Lo:            win[0],
			Hi:            win[1],
			SelfDisabling: true,
			MovePercent:   40 + trial%4*15,
			Nondet:        trial%2 == 1,
		})
		rep, err := CheckLivelockFreedom(p, CheckOptions{})
		if err != nil || rep.Witness == nil {
			continue
		}
		maxK := 6
		if p.Domain() == 3 && p.W() == 3 {
			maxK = 5
		}
		want, err := referenceConfirm(p, rep.Witness, maxK)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		for _, workers := range []int{1, 2} {
			got, err := ConfirmWitnessCtx(context.Background(), p, rep.Witness, maxK, explicit.WithWorkers(workers))
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%s, window %v) workers %d: %+v, per-K instances %+v", trial, p.Name(), win, workers, got, want)
			}
		}
		if want.Confirmed {
			confirmed++
		} else {
			spurious++
		}
		perWindow[win]++
	}
	t.Logf("%d confirmed, %d spurious; witnesses per window %v", confirmed, spurious, perWindow)
	if confirmed < 20 || spurious < 5 || len(perWindow) != len(windows) {
		t.Fatalf("too few cases to compare: %d confirmed, %d spurious, per window %v", confirmed, spurious, perWindow)
	}
}

// referenceConfirm is ConfirmWitness as it was before the quotient sweep:
// restrict the protocol to the witness's t-arcs and search each ring size
// in turn with a fresh instance.
func referenceConfirm(p *core.Protocol, w *TrailWitness, maxK int) (Confirmation, error) {
	conf := Confirmation{MaxKChecked: maxK}
	sys := p.Compile()
	moves := map[core.LocalState][]int{}
	for _, t := range w.TArcs {
		nv := sys.OwnValue(t.Dst)
		dup := false
		for _, existing := range moves[t.Src] {
			if existing == nv {
				dup = true
			}
		}
		if !dup {
			moves[t.Src] = append(moves[t.Src], nv)
		}
	}
	lo, hi := p.Window()
	restricted, err := core.NewFromTable(core.Config{
		Name: p.Name() + "/witness", Domain: p.Domain(), ValueNames: p.ValueNames(),
		Lo: lo, Hi: hi, Legit: p.LegitimateView,
	}, []core.TableAction{{Name: "w", Moves: moves}})
	if err != nil {
		return conf, err
	}
	for k := 2; k <= maxK; k++ {
		in, err := explicit.NewInstance(restricted, k)
		if err != nil {
			return conf, err
		}
		if cycle := in.FindLivelock(); cycle != nil {
			conf.Confirmed, conf.K, conf.Cycle = true, k, cycle
			return conf, nil
		}
	}
	return conf, nil
}
