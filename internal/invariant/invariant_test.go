package invariant

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"

	"paramring/internal/core"
	"paramring/internal/dsl"
	"paramring/internal/protocols"
	"paramring/internal/protogen"
)

func analyze(t *testing.T, p *core.Protocol) *Report {
	t.Helper()
	rep, err := Analyze(context.Background(), p, Options{})
	if err != nil {
		t.Fatalf("Analyze(%s): %v", p.Name(), err)
	}
	if rep.Certificate == nil {
		t.Fatalf("Analyze(%s): nil certificate", p.Name())
	}
	return rep
}

// TestZooVerdicts pins the lane's verdict on every zoo protocol against the
// known ground truth (the paper's Tables and the repo's theorem/explicit
// results): deadlock is exact, and livelock Holds exactly where the
// protocols are known livelock-free — including matching A/B and MIS, where
// Theorem 5.14 is inconclusive or contiguous-only and this lane is the only
// all-K proof in the repo.
func TestZooVerdicts(t *testing.T) {
	want := map[string]struct{ dead, live Verdict }{
		"agreement":      {Fails, Holds},
		"agreement-t01":  {Holds, Holds},
		"agreement-t10":  {Holds, Holds},
		"agreement-both": {Holds, Unknown}, // real livelock at K=4: must never claim Holds
		"coloring2":      {Fails, Holds},
		"coloring3":      {Fails, Holds},
		"gouda-acharya":  {Holds, Unknown}, // real livelock at K=5
		"matching":       {Fails, Holds},
		"matchingA":      {Holds, Holds},
		"matchingB":      {Fails, Holds},
		"mis":            {Holds, Holds},
		"sum-not-two":    {Fails, Holds},
		"sum-not-two-ss": {Holds, Holds},
	}
	zoo := protocols.All()
	if len(zoo) != len(want) {
		t.Fatalf("zoo has %d protocols, expectation table has %d — keep them in sync", len(zoo), len(want))
	}
	names := make([]string, 0, len(zoo))
	for n := range zoo {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		p := zoo[name]
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no expectation", name)
			continue
		}
		rep := analyze(t, p)
		if rep.Deadlock != w.dead {
			t.Errorf("%s: deadlock = %v, want %v", name, rep.Deadlock, w.dead)
		}
		if rep.Livelock != w.live {
			t.Errorf("%s: livelock = %v, want %v", name, rep.Livelock, w.live)
		}
		if rep.Deadlock == Fails && rep.DeadlockCycleLen == 0 {
			t.Errorf("%s: deadlock Fails without a cycle witness", name)
		}
		if rep.InvariantCount <= 0 {
			t.Errorf("%s: InvariantCount = %d", name, rep.InvariantCount)
		}
		if err := CheckCertificate(p, rep.Certificate); err != nil {
			t.Errorf("%s: certificate failed independent re-validation: %v", name, err)
		}
	}
}

// TestCertificateDeterminism pins that repeated analyses produce
// byte-identical canonical certificates — the property that makes the lane
// safe to cache and cross-compare.
func TestCertificateDeterminism(t *testing.T) {
	for _, name := range []string{"sum-not-two-ss", "matchingA", "agreement-t01", "matchingB"} {
		p := protocols.All()[name]
		first := analyze(t, p).Certificate.Canon()
		for i := 0; i < 3; i++ {
			if got := analyze(t, p).Certificate.Canon(); !bytes.Equal(got, first) {
				t.Errorf("%s: run %d certificate differs:\n%s\nvs\n%s", name, i+2, got, first)
			}
		}
	}
}

// flipFlop is a protocol with a genuine livelock only on the size-2 ring:
// with window [-1,1] on K=2 both neighbors are the same process, and the
// guard "right neighbor is 1" lets two non-legitimate states alternate
// forever. The small-K micro-check must refute it with a concrete witness.
func flipFlop() *core.Protocol {
	return core.MustNew(core.Config{
		Name:   "flip-flop",
		Domain: 2,
		Lo:     -1,
		Hi:     1,
		Legit:  func(v core.View) bool { return v[1] == 0 },
		Actions: []core.Action{{
			Name:  "flip",
			Guard: func(v core.View) bool { return v[2] == 1 },
			Next:  func(v core.View) []int { return []int{1 - v[1]} },
		}},
	})
}

func TestSmallRingLivelockWitness(t *testing.T) {
	rep := analyze(t, flipFlop())
	if rep.Livelock != Fails {
		t.Fatalf("livelock = %v, want Fails", rep.Livelock)
	}
	if rep.LivelockWitnessK != 2 {
		t.Fatalf("witness K = %d, want 2", rep.LivelockWitnessK)
	}
	sk := rep.Certificate.SmallK
	if sk == nil || sk.WitnessK != 2 || len(sk.WitnessCycle) == 0 {
		t.Fatalf("certificate small-K witness missing: %+v", sk)
	}
	if err := CheckCertificate(flipFlop(), rep.Certificate); err != nil {
		t.Fatalf("witness certificate rejected: %v", err)
	}
}

// TestTamperedCertificates drives the independent checker with corrupted
// certificates: every mutation must be rejected. This is the lane's trusted
// base — a tampered proof object that passes would silently launder a wrong
// verdict into the report.
func TestTamperedCertificates(t *testing.T) {
	p := protocols.All()["sum-not-two-ss"]
	fresh := func() *Certificate { return analyze(t, p).Certificate }

	tampers := []struct {
		name   string
		mutate func(c *Certificate)
	}{
		{"wrong protocol name", func(c *Certificate) { c.Protocol = "impostor" }},
		{"wrong domain", func(c *Certificate) { c.Domain++ }},
		{"wrong window", func(c *Certificate) { c.Lo-- }},
		{"wrong arc count", func(c *Certificate) { c.TArcs++ }},
		{"non-inductive trap", func(c *Certificate) { c.Traps = [][]int{{0}} }},
		{"unsorted trap", func(c *Certificate) { c.Traps = [][]int{{2, 1}} }},
		{"flip deadlock freedom", func(c *Certificate) {
			c.Deadlock.Free = false
			c.Deadlock.Ranks = nil
		}},
		{"missing bad cycle", func(c *Certificate) {
			c.Deadlock.Free = false
			c.Deadlock.Ranks = nil
			c.Deadlock.BadCycle = nil
		}},
		{"corrupt rank", func(c *Certificate) { c.Deadlock.Ranks[0] = -100 }},
		{"truncate ranks", func(c *Certificate) { c.Deadlock.Ranks = c.Deadlock.Ranks[:1] }},
		{"drop a deadlock", func(c *Certificate) {
			c.Deadlock.Deadlocks = c.Deadlock.Deadlocks[:len(c.Deadlock.Deadlocks)-1]
		}},
		{"zero all weights", func(c *Certificate) {
			for i := range c.Termination.Weights {
				c.Termination.Weights[i] = "0"
			}
		}},
		{"non-numeric weight", func(c *Certificate) { c.Termination.Weights[0] = "banana" }},
		{"truncate weights", func(c *Certificate) { c.Termination.Weights = c.Termination.Weights[:2] }},
		{"wrong recurrent count", func(c *Certificate) { c.Termination.RecurrentTArcs++ }},
		{"claim closure falsely is fine only if true", func(c *Certificate) {
			// Closure genuinely holds for this protocol; instead drop the
			// small-K section while keeping termination (coverage violation
			// is vacuous at w=2, so tamper the checked range directly).
			c.SmallK = &SmallKCertificate{Checked: []int{5}}
		}},
	}
	for _, tc := range tampers {
		c := fresh()
		tc.mutate(c)
		if err := CheckCertificate(p, c); err == nil {
			t.Errorf("%s: tampered certificate accepted", tc.name)
		}
	}

	// Cross-protocol replay: a valid certificate for one protocol must be
	// rejected for another.
	other := protocols.All()["agreement-t01"]
	if err := CheckCertificate(other, fresh()); err == nil {
		t.Errorf("certificate for %s accepted for %s", p.Name(), other.Name())
	}
}

// TestTerminationCoverageRule pins the checker rule that a termination
// certificate (an all-K livelock-freedom claim) must carry clean, complete
// small-ring coverage.
func TestTerminationCoverageRule(t *testing.T) {
	p := protocols.All()["matchingA"] // w = 3, so K=2 coverage is required
	c := analyze(t, p).Certificate
	if c.Termination == nil || c.SmallK == nil {
		t.Fatalf("expected termination + small-K sections, got %+v", c)
	}
	c.SmallK = nil
	if err := CheckCertificate(p, c); err == nil {
		t.Errorf("termination certificate without small-K coverage accepted")
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Analyze(ctx, protocols.All()["matchingA"], Options{}); err == nil {
		t.Fatalf("cancelled Analyze returned nil error")
	}
}

func TestGuards(t *testing.T) {
	p := protocols.All()["matchingA"]
	if _, err := Analyze(context.Background(), p, Options{MaxLocalStates: 8}); err == nil {
		t.Errorf("MaxLocalStates guard did not trip")
	}
	rep, err := Analyze(context.Background(), p, Options{MaxConstraints: 4})
	if err != nil {
		t.Fatalf("MaxConstraints should degrade to Unknown, got error %v", err)
	}
	if rep.Livelock != Unknown {
		t.Errorf("livelock = %v with starved constraint budget, want Unknown", rep.Livelock)
	}
	rep, err = Analyze(context.Background(), p, Options{MaxPivots: 3})
	if err != nil {
		t.Fatalf("MaxPivots should degrade to Unknown, got error %v", err)
	}
	if rep.Livelock != Unknown {
		t.Errorf("livelock = %v with starved pivot budget, want Unknown", rep.Livelock)
	}
}

// TestTrapInductiveness checks the reported traps directly against the
// transition relation (independent of the certificate checker).
func TestTrapInductiveness(t *testing.T) {
	for name, p := range protocols.All() {
		rep := analyze(t, p)
		sys := p.Compile()
		for _, trap := range rep.Certificate.Traps {
			in := map[int]bool{}
			for _, v := range trap {
				in[v] = true
			}
			for _, tr := range sys.Trans {
				if in[sys.OwnValue(tr.Src)] && !in[sys.OwnValue(tr.Dst)] {
					t.Errorf("%s: trap %v not inductive under %s", name, trap, sys.FormatTransition(tr))
				}
			}
		}
	}
}

// TestTableauCellCap pins the LP size guard. A two-valued sweep protocol
// with window [-4,4] has 512 local states and over 20,000 deduplicated
// constraints, well inside MaxConstraints; its tableau would hold hundreds of
// millions of cells, which the lane used to start allocating before its
// first pivot. It must degrade to Unknown with the cap's note instead.
func TestTableauCellCap(t *testing.T) {
	sw := protogen.Sweep{Seed: 5, Families: []protogen.SweepFamily{
		{Name: "big", Domain: 2, Lo: -4, Hi: 4, Variants: 1, MovePercent: 70},
	}}
	specs, err := sw.Specs()
	if err != nil {
		t.Fatal(err)
	}
	p, err := dsl.Parse(specs[1].Source)
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, p)
	if rep.Livelock != Unknown || rep.Certificate.Termination != nil {
		t.Errorf("livelock = %v (termination certificate %v), want Unknown", rep.Livelock, rep.Certificate.Termination)
	}
	if rep.Pivots != 0 || rep.Constraints <= 20000 {
		t.Errorf("pivots = %d, constraints = %d; want no pivot on a >20,000-row LP", rep.Pivots, rep.Constraints)
	}
	want := fmt.Sprintf("termination: %d×%d LP tableau exceeds the lane limit of %d cells",
		rep.Constraints, rep.Constraints+p.NumLocalStates(), maxTableauCells)
	found := false
	for _, n := range rep.Notes {
		found = found || n == want
	}
	if !found {
		t.Errorf("notes %q lack %q", rep.Notes, want)
	}
}
