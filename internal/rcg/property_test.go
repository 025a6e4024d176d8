package rcg

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"paramring/internal/dsl"
	"paramring/internal/explicit"
	"paramring/internal/graph"
	"paramring/internal/protogen"
)

// Theorem 4.2's iff, cross-validated over a spread of window shapes:
// unidirectional depth-2 ([-2,0]), bidirectional ([-1,1]) and
// forward-looking ([0,1]). The continuation construction must be correct
// for all of them. Explicit checking up to K = |local states| covers every
// elementary cycle length.
func TestTheorem42WiderWindowsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	windows := [][2]int{{-2, 0}, {-1, 1}, {0, 1}}
	for trial := 0; trial < 90; trial++ {
		win := windows[trial%len(windows)]
		p := protogen.Random(rng, protogen.Options{
			Domain:      2, // keeps |S_local| <= 8, so K <= 8 suffices
			Lo:          win[0],
			Hi:          win[1],
			MovePercent: 45,
		})
		sys := p.Compile()
		r := Build(sys)
		rep, err := r.CheckDeadlockFreedom(0)
		if err != nil {
			t.Fatal(err)
		}
		explicitDeadlock := false
		for k := 2; k <= sys.N(); k++ {
			in, err := explicit.NewInstance(p, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(in.IllegitimateDeadlocks()) > 0 {
				explicitDeadlock = true
				break
			}
		}
		if rep.Free == explicitDeadlock {
			t.Fatalf("trial %d window %v: RCG free=%v but explicit deadlock=%v",
				trial, win, rep.Free, explicitDeadlock)
		}
	}
}

// Every bad cycle unrolls into a real global deadlock outside I — the
// constructive direction of Theorem 4.2, across random protocols.
func TestUnrollCycleAlwaysYieldsDeadlocksRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	checkedCycles := 0
	for trial := 0; trial < 80; trial++ {
		p := protogen.Random(rng, protogen.Options{MovePercent: 35})
		r := Build(p.Compile())
		rep, err := r.CheckDeadlockFreedom(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, cycle := range rep.BadCycles {
			k := 1
			if len(cycle) == 1 {
				k = 2 // explicit instances need K >= 2
			}
			vals, err := r.UnrollCycle(cycle, k)
			if err != nil {
				t.Fatal(err)
			}
			in, err := explicit.NewInstance(p, len(vals))
			if err != nil {
				t.Fatal(err)
			}
			id := in.Encode(vals)
			if !in.IsDeadlock(id) {
				t.Fatalf("trial %d: unrolled %s is not a deadlock", trial, in.Format(id))
			}
			if in.InI(id) {
				t.Fatalf("trial %d: unrolled %s is inside I", trial, in.Format(id))
			}
			checkedCycles++
			if checkedCycles > 200 {
				return
			}
		}
	}
	if checkedCycles < 20 {
		t.Fatalf("property too weak: only %d cycles checked", checkedCycles)
	}
}

// DeadlockRingSizes agrees with explicit search on random protocols — the
// per-K refinement of Theorem 4.2.
func TestDeadlockRingSizesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 50; trial++ {
		p := protogen.Random(rng, protogen.Options{Domain: 2, MovePercent: 40})
		r := Build(p.Compile())
		predicted := r.DeadlockRingSizes(2, 6)
		for k := 2; k <= 6; k++ {
			in, err := explicit.NewInstance(p, k)
			if err != nil {
				t.Fatal(err)
			}
			actual := len(in.IllegitimateDeadlocks()) > 0
			if predicted[k] != actual {
				t.Fatalf("trial %d K=%d: predicted %v explicit %v", trial, k, predicted[k], actual)
			}
		}
	}
}

// TestBadCycleLengthsMatchesCheckDeadlockFreedom pins the verify path's
// streaming call to the materializing report it replaces: over the sweep
// shapes the service sees, the verdict and the distinct bad-cycle lengths
// equal CheckDeadlockFreedom(256)'s Free and SortedBadCycleLengths — also
// when the 256-cycle cap cuts the enumeration short, which the test requires
// at least one spec to do.
func TestBadCycleLengthsMatchesCheckDeadlockFreedom(t *testing.T) {
	sw := protogen.Sweep{Seed: 4242, Families: []protogen.SweepFamily{
		{Name: "d4w2-40", Domain: 4, Lo: -1, Hi: 0, Variants: 64, MovePercent: 40},
		{Name: "d4w2-70", Domain: 4, Lo: -1, Hi: 0, Variants: 64, MovePercent: 70},
		{Name: "d3bi-40", Domain: 3, Lo: -1, Hi: 1, Variants: 64, MovePercent: 40},
		{Name: "d3bi-70", Domain: 3, Lo: -1, Hi: 1, Variants: 64, MovePercent: 70},
		{Name: "d3w3", Domain: 3, Lo: -2, Hi: 0, Variants: 64, MovePercent: 40},
		{Name: "d2bi", Domain: 2, Lo: -1, Hi: 1, Variants: 64, MovePercent: 40},
	}}
	specs, err := sw.Specs()
	if err != nil {
		t.Fatal(err)
	}
	capped, refuted := 0, 0
	for _, sp := range specs {
		p, err := dsl.Parse(sp.Source)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		r := Build(p.Compile())
		rep, err := r.CheckDeadlockFreedom(256)
		if err != nil && !errors.Is(err, graph.ErrCycleLimit) {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if err != nil {
			capped++
		}
		free, lengths, err := r.BadCycleLengths(context.Background(), 256)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if want := rep.SortedBadCycleLengths(); free != rep.Free || !slices.Equal(lengths, want) {
			t.Fatalf("%s: BadCycleLengths = (%v, %v), CheckDeadlockFreedom: free %v, lengths %v",
				sp.Name, free, lengths, rep.Free, want)
		}
		if !free {
			refuted++
		}
	}
	t.Logf("%d specs: %d refuted, %d hit the cycle cap", len(specs), refuted, capped)
	if capped == 0 || refuted == len(specs) {
		t.Fatalf("%d of %d specs hit the cycle cap and %d were refuted: the sweep must cover the cap and both verdicts",
			capped, len(specs), refuted)
	}
}
