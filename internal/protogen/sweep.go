package protogen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"paramring/internal/core"
	"paramring/internal/dsl"
)

// Sweep is a deterministic protocol-generation recipe: a seed plus a list
// of families, each a fixed protocol shape (domain, window, one shared
// legitimacy predicate) spawning Variants randomly-tabled self-disabling
// members. Every member of a family shares its shape (corpus.FamilyKey
// names it); the result pin tests and the end-to-end benchmark draw their
// batches from sweeps.
//
// The same (Seed, Families) always produces byte-identical spec sources.
type Sweep struct {
	Seed     int64
	Families []SweepFamily
}

// SweepFamily shapes one family of generated specs.
type SweepFamily struct {
	// Name prefixes the generated spec names: "<name>-base" and
	// "<name>-vNNN". Must be unique within the sweep.
	Name string
	// Domain is the variable domain size (>= 2).
	Domain int
	// Lo, Hi set the read window; Lo <= 0 <= Hi.
	Lo int
	Hi int
	// Variants is the number of randomly-tabled members beyond the base.
	Variants int
	// MovePercent is the per-state probability (0..100) of an outgoing
	// transition (default 40), as in Options.
	MovePercent int
	// Nondet allows up to two candidate writes per enabled state.
	Nondet bool
}

// SweepSpec is one generated spec: a guarded-commands source plus the names
// of the sweep specs it depends on (each variant names its family base,
// which is how callers find a family's base).
type SweepSpec struct {
	Name   string
	Source string
	Deps   []string
}

// Specs generates the sweep deterministically: for each family, one base
// spec (the shared shape, no actions) followed by Variants self-disabling
// members whose transition tables are drawn per-variant. Every emitted
// source is round-tripped through the DSL parser before it is returned, so
// a Specs() success guarantees every result parses and compiles.
func (sw *Sweep) Specs() ([]SweepSpec, error) {
	if len(sw.Families) == 0 {
		return nil, fmt.Errorf("sweep: no families")
	}
	seen := map[string]bool{}
	var out []SweepSpec
	for _, f := range sw.Families {
		if f.Name == "" {
			return nil, fmt.Errorf("sweep: family with empty name")
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("sweep: duplicate family %q", f.Name)
		}
		seen[f.Name] = true
		if f.Domain < 2 {
			return nil, fmt.Errorf("sweep family %q: domain %d < 2", f.Name, f.Domain)
		}
		if f.Lo > 0 || f.Hi < 0 {
			return nil, fmt.Errorf("sweep family %q: window [%d,%d] must contain 0", f.Name, f.Lo, f.Hi)
		}
		if f.Variants < 1 {
			return nil, fmt.Errorf("sweep family %q: variants %d < 1", f.Name, f.Variants)
		}
		movePercent := f.MovePercent
		if movePercent == 0 {
			movePercent = 40
		}

		// One rng per family, seeded from the sweep seed and the family
		// name: adding a family never reshuffles another's members.
		h := fnv.New64a()
		h.Write([]byte(f.Name))
		rng := rand.New(rand.NewSource(sw.Seed ^ int64(h.Sum64())))

		d := f.Domain
		w := f.Hi - f.Lo + 1
		n := 1
		for i := 0; i < w; i++ {
			n *= d
		}

		// The family's shared legitimacy bitset: non-empty, and non-full
		// when possible, so verification has illegitimate states to reason
		// about.
		legit := make([]bool, n)
		count := 0
		for i := range legit {
			if rng.Intn(2) == 0 {
				legit[i] = true
				count++
			}
		}
		if count == 0 {
			legit[rng.Intn(n)] = true
		} else if count == n && n > 1 {
			legit[rng.Intn(n)] = false
		}
		legitExpr := legitimacyExpr(legit, d, f.Lo, w)

		base := SweepSpec{
			Name: f.Name + "-base",
			Source: fmt.Sprintf("protocol %s\ndomain %d\nwindow %d %d\nlegit %s\n",
				f.Name+"-base", d, f.Lo, f.Hi, legitExpr),
		}
		out = append(out, base)

		own := -f.Lo
		contexts := n / d
		for v := 0; v < f.Variants; v++ {
			var b strings.Builder
			name := fmt.Sprintf("%s-v%03d", f.Name, v)
			fmt.Fprintf(&b, "protocol %s\ndomain %d\nwindow %d %d\nlegit %s\n",
				name, d, f.Lo, f.Hi, legitExpr)
			// Per-context terminal classification, as in Random: movers
			// write only terminal values, so every action self-disables.
			for ctx := 0; ctx < contexts; ctx++ {
				terminal := make([]bool, d)
				var terms []int
				for val := 0; val < d; val++ {
					if rng.Intn(2) == 0 {
						terminal[val] = true
						terms = append(terms, val)
					}
				}
				if len(terms) == 0 {
					continue
				}
				for ov := 0; ov < d; ov++ {
					if terminal[ov] || rng.Intn(100) >= movePercent {
						continue
					}
					st := stateFor(ctx, ov, own, w, d)
					targets := pick(rng, terms, f.Nondet)
					view := core.Decode(st, d, w)
					fmt.Fprintf(&b, "action m%d: %s -> x[0] := %d", int(st), stateGuard(view, f.Lo), targets[0])
					if len(targets) > 1 {
						fmt.Fprintf(&b, " | x[0] := %d", targets[1])
					}
					b.WriteByte('\n')
				}
			}
			out = append(out, SweepSpec{Name: name, Source: b.String(), Deps: []string{base.Name}})
		}
	}
	for _, s := range out {
		spec, err := dsl.ParseSpec(s.Source)
		if err != nil {
			return nil, fmt.Errorf("sweep: generated spec %s does not parse: %w", s.Name, err)
		}
		if _, err := spec.Protocol(); err != nil {
			return nil, fmt.Errorf("sweep: generated spec %s does not compile: %w", s.Name, err)
		}
	}
	return out, nil
}

// legitimacyExpr renders a legitimacy bitset as a disjunction of per-state
// window-equality conjunctions ("0 == 0" when every state is legitimate).
func legitimacyExpr(legit []bool, d, lo, w int) string {
	all := true
	var states []string
	for s := range legit {
		if !legit[s] {
			all = false
			continue
		}
		view := core.Decode(core.LocalState(s), d, w)
		states = append(states, "("+stateGuard(view, lo)+")")
	}
	if all {
		return "0 == 0"
	}
	return strings.Join(states, " || ")
}

// stateGuard renders the conjunction that pins the whole read window to one
// local state, e.g. "x[-1] == 1 && x[0] == 0".
func stateGuard(view core.View, lo int) string {
	var parts []string
	for i, val := range view {
		parts = append(parts, fmt.Sprintf("x[%d] == %d", lo+i, val))
	}
	return strings.Join(parts, " && ")
}
