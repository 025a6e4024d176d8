package ltg

import (
	"fmt"
	"strings"

	"paramring/internal/core"
)

// Diagnosis is the structured explanation of a livelock analysis: which
// t-arc subsets can pseudo-livelock, which of those form contiguous trails,
// and what that implies — the machine-readable version of the narrative the
// paper walks through for 3-coloring and sum-not-two.
type Diagnosis struct {
	// Verdict mirrors CheckLivelockFreedom.
	Verdict Verdict
	// ContiguousOnly mirrors the bidirectional caveat.
	ContiguousOnly bool
	// Subsets lists every pseudo-livelocking t-arc subset examined, with
	// its trail classification.
	Subsets []SubsetDiagnosis
	// TotalSubsets counts all subsets examined (including non-pseudo-
	// livelocking ones, which are skipped).
	TotalSubsets int
	// Reason says why a trail-free analysis is Unknown rather than Free:
	// the window is one TheoremScope excludes.
	Reason string
}

// SubsetDiagnosis classifies one pseudo-livelocking t-arc subset.
type SubsetDiagnosis struct {
	// TArcs is the subset.
	TArcs []core.LocalTransition
	// FormsTrail reports whether the subset supports a contiguous trail
	// with an illegitimate state (the Theorem 5.14 conditions).
	FormsTrail bool
	// Witness is the trail, when FormsTrail.
	Witness *TrailWitness
}

// Diagnose runs the exact subset analysis and returns the full
// classification instead of stopping at the first qualifying trail.
// The protocol must be self-disabling, as in CheckLivelockFreedom.
func Diagnose(p *core.Protocol, opts CheckOptions) (*Diagnosis, error) {
	if opts.MaxTArcs <= 0 {
		opts.MaxTArcs = 16
	}
	sys := p.Compile()
	if !sys.IsSelfDisabling() {
		return nil, fmt.Errorf("ltg: protocol %q has self-enabling transitions; Theorem 5.14 requires self-disabling actions", p.Name())
	}
	d := &Diagnosis{ContiguousOnly: !p.Unidirectional()}
	tarcs := sys.Trans
	if len(tarcs) == 0 {
		d.Verdict = VerdictFree
		return d, nil
	}
	if len(tarcs) > opts.MaxTArcs {
		return nil, fmt.Errorf("ltg: %d t-arcs exceed the diagnosis limit %d", len(tarcs), opts.MaxTArcs)
	}
	l := Build(sys)
	total := 1 << len(tarcs)
	anyTrail := false
	for mask := 1; mask < total; mask++ {
		d.TotalSubsets++
		subset := subsetOf(tarcs, mask)
		if !FormsPseudoLivelock(sys, subset) {
			continue
		}
		sd := SubsetDiagnosis{TArcs: subset}
		if w := l.trailFor(subset); w != nil {
			sd.FormsTrail = true
			sd.Witness = w
			anyTrail = true
		}
		d.Subsets = append(d.Subsets, sd)
	}
	switch err := TheoremScope(p); {
	case anyTrail:
		d.Verdict = VerdictPotentialLivelock
	case err != nil:
		d.Verdict, d.Reason = VerdictUnknown, err.Error()
	default:
		d.Verdict = VerdictFree
	}
	return d, nil
}

// Summary renders the diagnosis as indented text for the CLI tools.
func (d *Diagnosis) Summary(sys *core.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "verdict: %v", d.Verdict)
	if d.ContiguousOnly {
		b.WriteString(" (contiguous livelocks only: bidirectional ring)")
	}
	if d.Reason != "" {
		fmt.Fprintf(&b, " (%s)", d.Reason)
	}
	fmt.Fprintf(&b, "\n%d subsets examined, %d pseudo-livelocking:\n", d.TotalSubsets, len(d.Subsets))
	for _, sd := range d.Subsets {
		status := "no contiguous trail"
		if sd.FormsTrail {
			status = fmt.Sprintf("TRAIL through illegitimate state %s",
				sys.Protocol().FormatState(sd.Witness.IllegitimateStates[0]))
		}
		fmt.Fprintf(&b, "  %s: %s\n", FormatTArcs(sys, sd.TArcs), status)
	}
	return b.String()
}
