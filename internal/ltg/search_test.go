package ltg

import (
	"math/rand"
	"reflect"
	"testing"

	"paramring/internal/core"
	"paramring/internal/protocols"
	"paramring/internal/protogen"
)

// systemsUnderTest collects compiled self-disabling zoo protocols with few
// enough t-arcs for the exact subset search.
func systemsUnderTest(t *testing.T) map[string]*core.System {
	t.Helper()
	out := map[string]*core.System{}
	for name, p := range protocols.All() {
		sys := p.Compile()
		if !sys.IsSelfDisabling() || len(sys.Trans) == 0 || len(sys.Trans) > 12 {
			continue
		}
		out[name] = sys
	}
	if len(out) == 0 {
		t.Fatal("no usable zoo systems")
	}
	return out
}

// FindTrailSubset with mustInclude < 0 must agree exactly with the
// CheckLivelockFreedom verdict (it *is* its search loop).
func TestFindTrailSubsetMatchesCheck(t *testing.T) {
	for name, sys := range systemsUnderTest(t) {
		rep, err := CheckLivelockFreedom(sys.Protocol(), CheckOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w, checked := Build(sys).FindTrailSubset(sys.Trans, -1, nil)
		if (w != nil) != (rep.Verdict == VerdictPotentialLivelock) {
			t.Fatalf("%s: FindTrailSubset witness=%v but verdict %s", name, w != nil, rep.Verdict)
		}
		if rep.Verdict == VerdictPotentialLivelock {
			if got := TrailReason(sys, w); got != rep.Reason {
				t.Fatalf("%s: reason mismatch:\n  search: %s\n  check:  %s", name, got, rep.Reason)
			}
		} else if checked != rep.SubsetsChecked {
			t.Fatalf("%s: checked %d subsets, report says %d", name, checked, rep.SubsetsChecked)
		}
	}
}

// A Memo must never change what the search returns — same witness, same
// subset count — while recording hits on repeated queries.
func TestFindTrailSubsetMemoTransparent(t *testing.T) {
	for name, sys := range systemsUnderTest(t) {
		l := Build(sys)
		memo := NewMemo()
		bare, bareChecked := l.FindTrailSubset(sys.Trans, -1, nil)
		first, firstChecked := l.FindTrailSubset(sys.Trans, -1, memo)
		second, secondChecked := l.FindTrailSubset(sys.Trans, -1, memo)
		if !reflect.DeepEqual(bare, first) || !reflect.DeepEqual(first, second) {
			t.Fatalf("%s: witness changed with memo", name)
		}
		if bareChecked != firstChecked || firstChecked != secondChecked {
			t.Fatalf("%s: subset counts differ: %d / %d / %d", name, bareChecked, firstChecked, secondChecked)
		}
		hits, misses := memo.Stats()
		if misses == 0 {
			t.Fatalf("%s: first pass recorded no misses", name)
		}
		if hits < uint64(secondChecked) {
			t.Fatalf("%s: second pass should hit the cache %d times, got %d hits", name, secondChecked, hits)
		}
	}
}

// The mustInclude filter must visit exactly the masks containing that t-arc,
// in ascending mask order — verified against a brute-force scan.
func TestFindTrailSubsetMustInclude(t *testing.T) {
	for name, sys := range systemsUnderTest(t) {
		l := Build(sys)
		tarcs := sys.Trans
		for i := range tarcs {
			got, _ := l.FindTrailSubset(tarcs, i, NewMemo())
			// Brute force: first qualifying mask containing bit i.
			var want *TrailWitness
			for mask := 1; mask < 1<<len(tarcs); mask++ {
				if mask&(1<<i) == 0 {
					continue
				}
				subset := subsetOf(tarcs, mask)
				if !FormsPseudoLivelock(sys, subset) {
					continue
				}
				if w := l.trailFor(subset); w != nil {
					want = w
					break
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s arc %d: mustInclude search diverges from brute force", name, i)
			}
		}
	}
}

// Non-vacuity: on known potential-livelock systems (agreement with both
// corrections, Gouda-Acharya) the subset search must produce a witness, and
// its trail must visit an illegitimate state.
func TestFindTrailSubsetFindsKnownTrail(t *testing.T) {
	for _, p := range []*core.Protocol{protocols.AgreementBoth(), protocols.GoudaAcharya()} {
		sys := p.Compile()
		w, _ := Build(sys).FindTrailSubset(sys.Trans, -1, nil)
		if w == nil {
			t.Fatalf("%s: no trail found on a known potential-livelock protocol", p.Name())
		}
		if len(w.IllegitimateStates) == 0 {
			t.Fatalf("%s: witness lacks an illegitimate state", p.Name())
		}
	}
}

// TestWriteCyclesMatchesFormsPseudoLivelock holds the subset search's mask
// test to FormsPseudoLivelock, its reference, on every subset of the first
// ten t-arcs of random protocols: domains 2 to 5, windows [-1,0] and
// [-2,1], deterministic and not.
func TestWriteCyclesMatchesFormsPseudoLivelock(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	masks := 0
	for trial := 0; trial < 300; trial++ {
		lo, hi := -1, 0
		if trial%2 == 1 {
			lo, hi = -2, 1
		}
		p := protogen.Random(rng, protogen.Options{
			Domain: 2 + trial%4, Lo: lo, Hi: hi, MovePercent: 60, Nondet: trial%3 == 0,
		})
		sys := p.Compile()
		tarcs := sys.Trans[:min(len(sys.Trans), 10)]
		w := newWriteCycles(sys, tarcs)
		for mask := 1; mask < 1<<len(tarcs); mask++ {
			masks++
			if got, want := w.forms(mask), FormsPseudoLivelock(sys, subsetOf(tarcs, mask)); got != want {
				t.Fatalf("trial %d mask %b: mask test %v, FormsPseudoLivelock %v", trial, mask, got, want)
			}
		}
	}
	if masks < 100000 {
		t.Fatalf("only %d masks compared", masks)
	}
}
