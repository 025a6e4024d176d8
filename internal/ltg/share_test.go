package ltg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"paramring/internal/core"
)

// familyMember builds one self-disabling protocol of a fixed shape (domain
// 3, window [-1,0], legitimacy "sum != 2"): own-values 0 and 1 are movers
// whose targets are drawn from the terminal value 2, per-context at the
// given density. All members share the shape, so one skeleton LTG and one
// memo are transferable across them.
func familyMember(t *testing.T, rng *rand.Rand, idx int) *core.Protocol {
	t.Helper()
	moves := map[core.LocalState][]int{}
	for s := 0; s < 9; s++ {
		view := core.Decode(core.LocalState(s), 3, 2)
		if view[1] == 2 || rng.Intn(100) >= 60 {
			continue // terminal own-value, or no move for this state
		}
		moves[core.LocalState(s)] = []int{2}
	}
	p, err := core.NewFromTable(core.Config{
		Name:   fmt.Sprintf("fam-%d", idx),
		Domain: 3,
		Lo:     -1,
		Hi:     0,
		Legit:  func(v core.View) bool { return v[0]+v[1] != 2 },
	}, []core.TableAction{{Name: "m", Moves: moves}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A shared skeleton + memo must never change a report, and verifying many
// same-shape protocols through one memo must actually hit it (the reason
// the service shares one per family).
func TestCheckLivelockFreedomSharedSkeletonMatchesIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	skeleton := Build(familyMember(t, rng, 0).Compile())
	memo := NewMemo()
	nonTrivial := 0
	for i := 0; i < 40; i++ {
		p := familyMember(t, rng, i)
		isolated, err := CheckLivelockFreedom(p, CheckOptions{})
		if err != nil {
			t.Fatalf("member %d isolated: %v", i, err)
		}
		shared, err := CheckLivelockFreedom(p, CheckOptions{Skeleton: skeleton, Memo: memo})
		if err != nil {
			t.Fatalf("member %d shared: %v", i, err)
		}
		if !reflect.DeepEqual(isolated, shared) {
			t.Fatalf("member %d: shared skeleton/memo changed the report:\nisolated: %+v\nshared:   %+v",
				i, isolated, shared)
		}
		if len(p.Compile().Trans) > 0 {
			nonTrivial++
		}
	}
	if nonTrivial < 20 {
		t.Fatalf("family too sparse to exercise the search: %d members with t-arcs", nonTrivial)
	}
	hits, misses := memo.Stats()
	if hits == 0 {
		t.Fatalf("no memo hits across 40 same-shape members (misses=%d): sharing bought nothing", misses)
	}
}

// A skeleton of a different shape must be ignored — the check silently
// rebuilds its own graphs and never consults the foreign memo.
func TestCheckLivelockFreedomMismatchedSkeletonIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := familyMember(t, rng, 1)

	other, err := core.NewFromTable(core.Config{
		Name:   "other-shape",
		Domain: 2,
		Lo:     -1,
		Hi:     0,
		Legit:  func(v core.View) bool { return v[0] == v[1] },
	}, []core.TableAction{{Name: "m", Moves: map[core.LocalState][]int{}}})
	if err != nil {
		t.Fatal(err)
	}
	foreign := Build(other.Compile())
	memo := NewMemo()

	want, err := CheckLivelockFreedom(p, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CheckLivelockFreedom(p, CheckOptions{Skeleton: foreign, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("mismatched skeleton changed the report:\nwant %+v\ngot  %+v", want, got)
	}
	if hits, misses := memo.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("memo consulted despite shape mismatch: hits=%d misses=%d", hits, misses)
	}
}

// SameShape must compare legitimacy, not just dimensions: two protocols
// with equal domain and window but different legit sets are not shape-
// compatible (the trail search reads per-state legitimacy).
func TestSameShapeDistinguishesLegitimacy(t *testing.T) {
	mk := func(name string, legit func(core.View) bool) *core.Protocol {
		p, err := core.NewFromTable(core.Config{
			Name: name, Domain: 3, Lo: -1, Hi: 0, Legit: legit,
		}, []core.TableAction{{Name: "m", Moves: map[core.LocalState][]int{}}})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := mk("a", func(v core.View) bool { return v[0]+v[1] != 2 })
	b := mk("b", func(v core.View) bool { return v[0] == v[1] })
	la := Build(a.Compile())
	if !la.SameShape(a.Compile()) {
		t.Fatal("a protocol must be shape-compatible with itself")
	}
	if la.SameShape(b.Compile()) {
		t.Fatal("different legitimacy must break shape compatibility")
	}
}
