package protogen

import (
	"reflect"
	"testing"

	"paramring/internal/core"
	"paramring/internal/dsl"
)

func testSweep() *Sweep {
	return &Sweep{
		Seed: 42,
		Families: []SweepFamily{
			{Name: "alpha", Domain: 3, Lo: -1, Hi: 0, Variants: 5},
			{Name: "beta", Domain: 2, Lo: 0, Hi: 1, Variants: 4, Nondet: true},
		},
	}
}

func TestSweepDeterministicAndParsable(t *testing.T) {
	a, err := testSweep().Specs()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testSweep().Specs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same manifest must generate byte-identical specs")
	}
	// 2 bases + 5 + 4 variants.
	if len(a) != 11 {
		t.Fatalf("generated %d specs, want 11", len(a))
	}
	for _, s := range a {
		spec, err := dsl.ParseSpec(s.Source)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if spec.Name != s.Name {
			t.Fatalf("spec name %q, manifest name %q", spec.Name, s.Name)
		}
	}
}

// Every member of a family must share its base's shape (domain, window,
// legitimacy): that is the invariant the corpus keys its skeleton/memo
// sharing on.
func TestSweepFamilyMembersShareShape(t *testing.T) {
	specs, err := testSweep().Specs()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]string{}
	for _, s := range specs {
		byName[s.Name] = s.Source
	}
	for _, s := range specs {
		if len(s.Deps) == 0 {
			continue
		}
		baseSpec, err := dsl.ParseSpec(byName[s.Deps[0]])
		if err != nil {
			t.Fatal(err)
		}
		varSpec, err := dsl.ParseSpec(s.Source)
		if err != nil {
			t.Fatal(err)
		}
		bp, err := baseSpec.Protocol()
		if err != nil {
			t.Fatal(err)
		}
		vp, err := varSpec.Protocol()
		if err != nil {
			t.Fatal(err)
		}
		blo, bhi := bp.Window()
		vlo, vhi := vp.Window()
		if bp.Domain() != vp.Domain() || blo != vlo || bhi != vhi {
			t.Fatalf("%s: shape differs from base %s", s.Name, s.Deps[0])
		}
		for ls := 0; ls < bp.NumLocalStates(); ls++ {
			if bp.Legitimate(core.LocalState(ls)) != vp.Legitimate(core.LocalState(ls)) {
				t.Fatalf("%s: legitimacy differs from base %s at state %d", s.Name, s.Deps[0], ls)
			}
		}
	}
}

// Sweep actions must be self-disabling (the paper's Assumption 2): every
// transition's destination has no outgoing transition.
func TestSweepVariantsSelfDisabling(t *testing.T) {
	specs, err := testSweep().Specs()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, s := range specs {
		spec, err := dsl.ParseSpec(s.Source)
		if err != nil {
			t.Fatal(err)
		}
		p, err := spec.Protocol()
		if err != nil {
			t.Fatal(err)
		}
		sys := p.Compile()
		enabled := map[int]bool{}
		for _, tr := range sys.Trans {
			enabled[int(tr.Src)] = true
		}
		for _, tr := range sys.Trans {
			if enabled[int(tr.Dst)] {
				t.Fatalf("%s: transition into enabled state %d — not self-disabling", s.Name, tr.Dst)
			}
		}
		checked += len(sys.Trans)
	}
	if checked == 0 {
		t.Fatal("sweep generated no transitions at all; nothing exercised")
	}
}

func TestSweepRejectsBadManifests(t *testing.T) {
	for name, sw := range map[string]*Sweep{
		"empty":       {},
		"no-name":     {Families: []SweepFamily{{Domain: 2, Variants: 1}}},
		"dup":         {Families: []SweepFamily{{Name: "a", Domain: 2, Variants: 1}, {Name: "a", Domain: 2, Variants: 1}}},
		"domain":      {Families: []SweepFamily{{Name: "a", Domain: 1, Variants: 1}}},
		"window":      {Families: []SweepFamily{{Name: "a", Domain: 2, Lo: 1, Hi: 2, Variants: 1}}},
		"no-variants": {Families: []SweepFamily{{Name: "a", Domain: 2}}},
	} {
		if _, err := sw.Specs(); err == nil {
			t.Errorf("%s: Specs() accepted a bad manifest", name)
		}
	}
}
