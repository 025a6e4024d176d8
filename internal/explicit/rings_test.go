package explicit

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"paramring/internal/core"
	"paramring/internal/protocols"
	"paramring/internal/protogen"
)

// ringsMaxStates bounds domain^maxK for the decoded fuzz cases.
const ringsMaxStates = 1 << 14

// decodeRingCase decodes fuzz bytes into a symmetric protocol, a ring-size
// bound and a worker count:
//
//	data[0]    domain 2 + data[0]%3
//	data[1]    window [-(data[1]%3), data[1]/3%3]
//	data[2]    maxK 2 + data[2]%(m-1), where m is the largest K with
//	           domain^K <= ringsMaxStates
//	data[3]    workers 1 + data[3]%2
//	data[4+c]  local state code c: bit 0 makes it legitimate, bit 1+v lets
//	           the process write v — a stuttering move when v is its own
//	           value, and nondeterminism when several bits are set
//
// Codes past the end of data are illegitimate and disabled.
func decodeRingCase(data []byte) (p *core.Protocol, maxK, workers int, err error) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	d := 2 + int(at(0)%3)
	lo, hi := -int(at(1)%3), int(at(1)/3%3)
	m, n := 0, 1
	for n*d <= ringsMaxStates {
		n *= d
		m++
	}
	maxK = 2 + int(at(2))%(m-1)
	workers = 1 + int(at(3)%2)

	w := hi - lo + 1
	codes := 1
	for i := 0; i < w; i++ {
		codes *= d
	}
	legit := make([]bool, codes)
	moves := map[core.LocalState][]int{}
	for c := 0; c < codes; c++ {
		b := at(4 + c)
		legit[c] = b&1 == 1
		for v := 0; v < d; v++ {
			if b>>(1+v)&1 == 1 {
				moves[core.LocalState(c)] = append(moves[core.LocalState(c)], v)
			}
		}
	}
	p, err = core.NewFromTable(core.Config{
		Name: fmt.Sprintf("fuzz-d%d-w%d", d, w), Domain: d, Lo: lo, Hi: hi,
		Legit: func(v core.View) bool { return legit[core.Encode(v, d)] },
	}, []core.TableAction{{Name: "m", Moves: moves}})
	return p, maxK, workers, err
}

// FuzzCheckRingsEquivalence is the differential fuzz of CheckRings against
// the witness methods of per-K instances: for every ring size, Deadlock,
// Livelock, States and TableBytes must equal those of a fresh NewInstance
// with the same worker count — len(IllegitimateDeadlocks()) > 0,
// FindLivelock() != nil, NumStates() and TableBytes() — and the
// deadlock-only call must agree on Deadlock, and SmallestLivelockK on the
// first ring size that livelocks. testdata/fuzz holds the committed seeds
// (a self-loop livelock, a longer cycle, a cycle through rotations of one
// state, deadlock only, neither, K below the window width with and
// without a livelock there, two workers); CI replays them under -race.
func FuzzCheckRingsEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, maxK, workers, err := decodeRingCase(data)
		if err != nil {
			t.Skip(err)
		}
		ctx := context.Background()
		both, err := CheckRings(ctx, p, maxK, true, WithWorkers(workers))
		if err != nil {
			t.Fatalf("CheckRings(livelock): %v", err)
		}
		deadlockOnly, err := CheckRings(ctx, p, maxK, false, WithWorkers(workers))
		if err != nil {
			t.Fatalf("CheckRings(deadlock only): %v", err)
		}
		if len(both) != maxK-1 || len(deadlockOnly) != maxK-1 {
			t.Fatalf("maxK %d: got %d and %d ring checks", maxK, len(both), len(deadlockOnly))
		}
		smallest, err := SmallestLivelockK(ctx, p, maxK, WithWorkers(workers))
		if err != nil {
			t.Fatalf("SmallestLivelockK: %v", err)
		}
		if i := slices.IndexFunc(both, func(rc RingCheck) bool { return rc.Livelock }); (i < 0 && smallest != 0) || (i >= 0 && smallest != both[i].K) {
			t.Fatalf("%s workers=%d: SmallestLivelockK %d, CheckRings %+v", p.Name(), workers, smallest, both)
		}
		for i, rc := range both {
			want := instanceRingCheck(p, i+2, workers)
			if rc != want {
				t.Fatalf("%s K=%d workers=%d: CheckRings %+v, instance %+v", p.Name(), i+2, workers, rc, want)
			}
			want.Livelock = false
			if deadlockOnly[i] != want {
				t.Fatalf("%s K=%d workers=%d: deadlock-only CheckRings %+v, instance %+v", p.Name(), i+2, workers, deadlockOnly[i], want)
			}
		}
	})
}

// instanceRingCheck answers the ring check with the witness methods of a
// fresh instance — the reference side of the CheckRings differentials.
func instanceRingCheck(p *core.Protocol, k, workers int) RingCheck {
	in := MustNewInstance(p, k, WithWorkers(workers))
	return RingCheck{
		K:          k,
		States:     in.NumStates(),
		TableBytes: in.TableBytes(),
		Deadlock:   len(in.IllegitimateDeadlocks()) > 0,
		Livelock:   in.FindLivelock() != nil,
	}
}

// TestCheckRingsMatchesInstancesOnSweeps runs the CheckRings contract over
// generated protocols on four window shapes.
func TestCheckRingsMatchesInstancesOnSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	windows := [][2]int{{-1, 0}, {-1, 1}, {0, 1}, {-2, 0}}
	for i := 0; i < 40; i++ {
		p := protogen.Random(rng, protogen.Options{
			Domain:      2 + i%3,
			Lo:          windows[i%4][0],
			Hi:          windows[i%4][1],
			MovePercent: 20 + 15*(i%5),
			Nondet:      i%2 == 0,
		})
		maxK := 6
		if p.Domain() == 4 {
			maxK = 5
		}
		checkRingsMatchesInstances(t, fmt.Sprintf("sweep protocol %d", i), p, maxK)
	}
}

// TestReducedAgreesWithFullZoo: the orbit-reduced decider, CheckRings, and
// the full per-K instances agree on the zoo, at every K up to the bound.
func TestReducedAgreesWithFullZoo(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    int
	}{
		{"matchingA", 6}, {"matchingB", 6}, {"agreement-both", 5},
		{"agreement-t01", 6}, {"sum-not-two-ss", 6}, {"mis", 6},
		{"gouda-acharya", 5}, {"coloring3", 4},
	} {
		checkRingsMatchesInstances(t, tc.name, protocols.All()[tc.name], tc.k)
	}
}

// TestReducedAgreesWithFullRandom is TestReducedAgreesWithFullZoo over
// nondeterministic draws on the default window with ring sizes up to 3..6.
func TestReducedAgreesWithFullRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 60; trial++ {
		p := protogen.Random(rng, protogen.Options{MovePercent: 50, Nondet: true})
		checkRingsMatchesInstances(t, fmt.Sprintf("trial %d (%s)", trial, p.Name()), p, 3+rng.Intn(4))
	}
}

// checkRingsMatchesInstances holds CheckRings on p for K = 2..maxK to
// instanceRingCheck, with one and two workers, and with an edge budget
// that sends the larger ring sizes to the per-K fallback.
func checkRingsMatchesInstances(t *testing.T, name string, p *core.Protocol, maxK int) {
	t.Helper()
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		for _, budget := range []uint64{csrEdgeBudget, 200} {
			got, err := checkRings(ctx, p, maxK, true, false, budget, []Option{WithWorkers(workers)})
			if err != nil {
				t.Fatal(err)
			}
			for _, rc := range got {
				if want := instanceRingCheck(p, rc.K, workers); rc != want {
					t.Fatalf("%s, workers %d, edge budget %d: CheckRings %+v, instance %+v", name, workers, budget, rc, want)
				}
			}
		}
	}
}

// TestCheckRingsInstanceOptions: options the shared tables cannot describe
// route every ring size through per-K instances with the same answers.
func TestCheckRingsInstanceOptions(t *testing.T) {
	p := protogen.Random(rand.New(rand.NewSource(3)), protogen.Options{Domain: 3, MovePercent: 60, Nondet: true})
	ctx := context.Background()
	want, err := CheckRings(ctx, p, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	conjunction := func(vals []int) bool {
		view := make(core.View, p.W())
		lo, _ := p.Window()
		for r := range vals {
			for i := range view {
				view[i] = vals[((r+lo+i)%len(vals)+len(vals))%len(vals)]
			}
			if !p.LegitimateView(view) {
				return false
			}
		}
		return true
	}
	for name, opt := range map[string]Option{
		"WithProcessActions":  WithProcessActions(0, p.Actions()),
		"WithGlobalPredicate": WithGlobalPredicate(conjunction),
	} {
		got, err := CheckRings(ctx, p, 5, true, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %+v, want %+v", name, got, want)
		}
	}
}

// TestCheckRingsErrors: a construction error reports NewInstance's message
// for the smallest failing ring size, with the smaller sizes returned as
// completed, and a done context surfaces ctx.Err().
func TestCheckRingsErrors(t *testing.T) {
	p := protogen.Random(rand.New(rand.NewSource(5)), protogen.Options{Domain: 3, MovePercent: 50})
	ctx := context.Background()
	for _, livelock := range []bool{false, true} {
		got, err := CheckRings(ctx, p, 6, livelock, WithMaxStates(100))
		_, want := NewInstance(p, 5, WithMaxStates(100))
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("livelock %v: error %v, want %v", livelock, err, want)
		}
		if len(got) != 3 || got[len(got)-1].K != 4 {
			t.Fatalf("livelock %v: completed ring sizes %+v, want K=2..4", livelock, got)
		}
	}

	bad, err := core.New(core.Config{
		Name: "bad", Domain: 2, Lo: -1, Hi: 0,
		Legit: func(core.View) bool { return false },
		Actions: []core.Action{{
			Name:  "overflow",
			Guard: func(core.View) bool { return true },
			Next:  func(core.View) []int { return []int{2} },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CheckRings(ctx, bad, 4, true)
	_, want := NewInstance(bad, 2)
	if err == nil || want == nil || err.Error() != want.Error() || len(got) != 0 {
		t.Fatalf("out-of-domain action: %+v, %v; want K=2 error %v", got, err, want)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	for _, livelock := range []bool{false, true} {
		if _, err := CheckRings(canceled, p, 6, livelock); !errors.Is(err, context.Canceled) {
			t.Fatalf("livelock %v: canceled context returned %v", livelock, err)
		}
	}
}
