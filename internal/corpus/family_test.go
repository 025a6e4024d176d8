package corpus

import (
	"reflect"
	"testing"

	"paramring/internal/core"
	"paramring/internal/dsl"
	"paramring/internal/ltg"
	"paramring/internal/protogen"
	"paramring/internal/verify"
)

// sweepProtocols generates a sweep and compiles every spec, base included.
func sweepProtocols(t *testing.T, sw *protogen.Sweep) []*core.Protocol {
	t.Helper()
	specs, err := sw.Specs()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*core.Protocol, len(specs))
	for i, sp := range specs {
		spec, err := dsl.ParseSpec(sp.Source)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if out[i], err = spec.Protocol(); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
	}
	return out
}

// Shared state must never change a verdict: every member of a family gets
// the same Result with and without the family's skeleton and memo, and the
// memo is actually hit across the siblings.
func TestFamilyMemosMatchIsolated(t *testing.T) {
	ps := sweepProtocols(t, &protogen.Sweep{
		Seed:     99,
		Families: []protogen.SweepFamily{{Name: "g", Domain: 3, Lo: -1, Hi: 0, Variants: 20}},
	})
	memos := NewFamilyMemos(0)
	for _, p := range ps {
		isolated, err := verify.Check(p, verify.Options{})
		if err != nil {
			t.Fatalf("%s isolated: %v", p.Name(), err)
		}
		shared, err := verify.Check(p, verify.Options{Check: memos.CheckOptions(p, ltg.CheckOptions{})})
		if err != nil {
			t.Fatalf("%s shared: %v", p.Name(), err)
		}
		if a, b := shared.Result(p.Name()), isolated.Result(p.Name()); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: verdict differs under sharing:\nshared   %+v\nisolated %+v", p.Name(), a, b)
		}
	}
	if hits, misses := memos.Stats(); hits == 0 {
		t.Fatalf("no shared-memo hits across %d siblings (misses=%d): sharing bought nothing", len(ps), misses)
	}
	if memos.Len() != 1 {
		t.Fatalf("families registered = %d, want 1", memos.Len())
	}
}

func TestFamilyMemosBoundedAndKeyed(t *testing.T) {
	ps := sweepProtocols(t, &protogen.Sweep{
		Seed: 3,
		Families: []protogen.SweepFamily{
			{Name: "k0", Domain: 3, Lo: -1, Hi: 0, Variants: 2},
			{Name: "k1", Domain: 2, Lo: -1, Hi: 0, Variants: 2},
			{Name: "k2", Domain: 2, Lo: 0, Hi: 1, Variants: 2},
		},
	})
	memos := NewFamilyMemos(0)
	for _, p := range ps {
		memos.CheckOptions(p, ltg.CheckOptions{})
	}
	if got := memos.Len(); got != 3 {
		t.Fatalf("families registered = %d, want 3 (one per shape)", got)
	}
}

// Past its bound the registry forgets the oldest family, but Stats stays
// cumulative: the evicted family's hits and misses are still counted.
func TestFamilyMemosEvictionKeepsStats(t *testing.T) {
	ps := sweepProtocols(t, &protogen.Sweep{
		Seed: 99,
		Families: []protogen.SweepFamily{
			{Name: "e0", Domain: 3, Lo: -1, Hi: 0, Variants: 20},
			{Name: "e1", Domain: 2, Lo: -1, Hi: 0, Variants: 2},
			{Name: "e2", Domain: 2, Lo: 0, Hi: 1, Variants: 2},
		},
	})
	memos := NewFamilyMemos(2)
	first := FamilyKey(ps[0])
	evicted := false
	for _, p := range ps {
		_, known := memos.m[FamilyKey(p)]
		if known || memos.Len() < 2 {
			// Sweep members are self-disabling by construction.
			if _, err := ltg.CheckLivelockFreedom(p, memos.CheckOptions(p, ltg.CheckOptions{})); err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			continue
		}
		// A third shape: registering it evicts the oldest family.
		if h, m := memos.m[first].memo.Stats(); h == 0 || m == 0 {
			t.Fatalf("first family: %d hits, %d misses; need both to see them survive eviction", h, m)
		}
		h0, m0 := memos.Stats()
		memos.CheckOptions(p, ltg.CheckOptions{})
		if _, ok := memos.m[first]; ok || memos.Len() != 2 {
			t.Fatalf("after a third shape: %d live families, first still live = %v; want 2, false", memos.Len(), ok)
		}
		if h, m := memos.Stats(); h != h0 || m != m0 {
			t.Fatalf("Stats across the eviction = %d/%d hits/misses, was %d/%d: the evicted family's counters were lost", h, m, h0, m0)
		}
		evicted = true
	}
	if !evicted {
		t.Fatal("the sweep never registered a third shape")
	}
}
