package invariant

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"runtime/trace"

	"paramring/internal/core"
)

// Certificate is the lane's machine-checkable proof object: the invariant
// set plus the replayable inductiveness evidence for every conclusive
// verdict. It is a pure function of (protocol, options) — no timestamps, no
// worker-count dependence, no map-ordered output — so its canonical
// encoding is byte-identical across runs, which the test suite pins.
type Certificate struct {
	// Protocol/Domain/Lo/Hi/LocalStates/TArcs bind the certificate to one
	// protocol shape; the checker refuses a mismatched protocol.
	Protocol    string `json:"protocol"`
	Domain      int    `json:"domain"`
	Lo          int    `json:"lo"`
	Hi          int    `json:"hi"`
	LocalStates int    `json:"local_states"`
	TArcs       int    `json:"t_arcs"`

	// Traps are the distinct non-trivial value traps, each sorted
	// ascending, in order of smallest generating value. Inductiveness: for
	// every local transition, own(Src) in T implies own(Dst) in T.
	Traps [][]int `json:"traps,omitempty"`

	// Deadlock is the ranking (or refutation) over the continuation graph
	// of local deadlock states. Always present.
	Deadlock *DeadlockCertificate `json:"deadlock,omitempty"`

	// Termination, when present, certifies that every computation of every
	// ring size K >= w is finite — the potential argument behind a Holds
	// livelock verdict.
	Termination *TerminationCertificate `json:"termination,omitempty"`

	// SmallK covers the ring sizes 2 <= K < w exhaustively (nil when w <= 2
	// and the range is empty).
	SmallK *SmallKCertificate `json:"small_k,omitempty"`

	// ClosureHolds records that I is closed under the protocol for every K.
	ClosureHolds bool `json:"closure_holds,omitempty"`
}

// DeadlockCertificate is the ranking side of the certificate; see the
// soundness/completeness argument in deadlock.go.
type DeadlockCertificate struct {
	// Free claims no ring size has a global deadlock outside I.
	Free bool `json:"free"`
	// Deadlocks lists the local deadlock state codes, ascending. The
	// checker re-derives the set and requires equality.
	Deadlocks []int `json:"deadlocks"`
	// Ranks, when Free, is the ranking parallel to Deadlocks: non-strictly
	// decreasing along every continuation arc, strictly when either
	// endpoint is illegitimate.
	Ranks []int `json:"ranks,omitempty"`
	// BadCycle, when !Free, is a continuation cycle of local deadlocks with
	// at least one illegitimate member: unrolled, a deadlocked ring of size
	// len(BadCycle) (or 2 for a self-loop).
	BadCycle []int `json:"bad_cycle,omitempty"`
}

// TerminationCertificate carries the potential. Weights are decimal big
// integers indexed by local state code; an empty Weights with
// RecurrentTArcs == 0 means support pruning alone proved termination.
type TerminationCertificate struct {
	RecurrentTArcs int      `json:"recurrent_t_arcs"`
	Weights        []string `json:"weights,omitempty"`
}

// SmallKCertificate records the exhaustively checked small ring sizes and,
// when one livelocks, the concrete witness cycle of global valuations.
type SmallKCertificate struct {
	Checked      []int   `json:"checked,omitempty"`
	WitnessK     int     `json:"witness_k,omitempty"`
	WitnessCycle [][]int `json:"witness_cycle,omitempty"`
}

// Canon renders the canonical (deterministic) encoding of the certificate.
func (c *Certificate) Canon() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		// Certificate holds only ints, strings and slices; Marshal cannot fail.
		panic(err)
	}
	return b
}

// Size returns the canonical encoding's byte length.
func (c *Certificate) Size() int { return len(c.Canon()) }

// CheckCertificate re-validates a certificate against a protocol from first
// principles, sharing no derived state with Analyze: the transition relation
// comes from a fresh Compile, continuation arcs are confirmed by decoded
// window comparison, potential sums are evaluated in big.Int arithmetic,
// and the small-ring searches rerun directly off the action closures. A nil
// error means every claim in the certificate is inductive for this
// protocol. The function never panics, whatever the certificate contains —
// it is the fuzz target guarding the lane's trusted base.
func CheckCertificate(p *core.Protocol, c *Certificate) error {
	defer trace.StartRegion(context.Background(), "invariant.recheck").End()
	if c == nil {
		return fmt.Errorf("invariant: nil certificate")
	}
	lo, hi := p.Window()
	n := p.NumLocalStates()
	sys := p.Compile()
	if c.Protocol != p.Name() || c.Domain != p.Domain() || c.Lo != lo || c.Hi != hi ||
		c.LocalStates != n || c.TArcs != len(sys.Trans) {
		return fmt.Errorf("invariant: certificate header %q/d=%d/[%d,%d]/%d states/%d arcs does not match protocol %q/d=%d/[%d,%d]/%d states/%d arcs",
			c.Protocol, c.Domain, c.Lo, c.Hi, c.LocalStates, c.TArcs,
			p.Name(), p.Domain(), lo, hi, n, len(sys.Trans))
	}
	if err := checkTraps(sys, c.Traps); err != nil {
		return err
	}
	if err := checkDeadlockCert(p, sys, c.Deadlock); err != nil {
		return err
	}
	if err := checkTerminationCert(p, sys, c.Termination); err != nil {
		return err
	}
	// A termination certificate backs a "no livelock for any K" claim, so it
	// must come with clean, complete coverage of the small rings the
	// parameterized argument does not reach.
	if c.Termination != nil {
		if c.SmallK != nil && c.SmallK.WitnessK != 0 {
			return fmt.Errorf("invariant: termination certificate alongside a K=%d livelock witness", c.SmallK.WitnessK)
		}
		for k := 2; k < p.W(); k++ {
			if c.SmallK == nil || !containsInt(c.SmallK.Checked, k) {
				return fmt.Errorf("invariant: termination certificate does not cover the size-%d ring", k)
			}
		}
	}
	if err := checkSmallKCert(p, c.SmallK); err != nil {
		return err
	}
	if c.ClosureHolds {
		if err := checkClosureClaim(p, c.SmallK); err != nil {
			return err
		}
	}
	return nil
}

func checkTraps(sys *core.System, traps [][]int) error {
	p := sys.Protocol()
	d := p.Domain()
	for ti, trap := range traps {
		if len(trap) == 0 || len(trap) >= d {
			return fmt.Errorf("invariant: trap %d has %d values (want 1..%d)", ti, len(trap), d-1)
		}
		member := make([]bool, d)
		for i, v := range trap {
			if v < 0 || v >= d {
				return fmt.Errorf("invariant: trap %d value %d outside domain [0,%d)", ti, v, d)
			}
			if i > 0 && trap[i] <= trap[i-1] {
				return fmt.Errorf("invariant: trap %d is not strictly ascending", ti)
			}
			member[v] = true
		}
		for _, t := range sys.Trans {
			if member[sys.OwnValue(t.Src)] && !member[sys.OwnValue(t.Dst)] {
				return fmt.Errorf("invariant: trap %d %v is not inductive: transition %s leaves it",
					ti, trap, sys.FormatTransition(t))
			}
		}
	}
	return nil
}

// continuesViews reports the continuation relation by direct decoded-window
// comparison: the last w-1 values of s1 are the first w-1 of s2.
func continuesViews(p *core.Protocol, s1, s2 core.LocalState) bool {
	w := p.W()
	if w == 1 {
		return true
	}
	v1, v2 := p.Decode(s1), p.Decode(s2)
	for i := 1; i < w; i++ {
		if v1[i] != v2[i-1] {
			return false
		}
	}
	return true
}

func checkDeadlockCert(p *core.Protocol, sys *core.System, c *DeadlockCertificate) error {
	if c == nil {
		return fmt.Errorf("invariant: certificate lacks the deadlock section")
	}
	if len(c.Deadlocks) != len(sys.Deadlocks) {
		return fmt.Errorf("invariant: certificate lists %d deadlocks, protocol has %d",
			len(c.Deadlocks), len(sys.Deadlocks))
	}
	idx := make(map[int]int, len(c.Deadlocks))
	for i, s := range c.Deadlocks {
		if s != int(sys.Deadlocks[i]) {
			return fmt.Errorf("invariant: certificate deadlock[%d]=%d, protocol has %d",
				i, s, int(sys.Deadlocks[i]))
		}
		idx[s] = i
	}
	n := p.NumLocalStates()
	d := p.Domain()
	if !c.Free {
		cyc := c.BadCycle
		if len(cyc) == 0 {
			return fmt.Errorf("invariant: refuting deadlock certificate lacks a cycle")
		}
		anyIllegit := false
		for i, s := range cyc {
			if _, ok := idx[s]; !ok || s < 0 || s >= n {
				return fmt.Errorf("invariant: bad-cycle state %d is not a local deadlock", s)
			}
			if !sys.Legit[s] {
				anyIllegit = true
			}
			next := cyc[(i+1)%len(cyc)]
			if !continuesViews(p, core.LocalState(s), core.LocalState(next)) {
				return fmt.Errorf("invariant: bad-cycle states %d -> %d do not overlap", s, next)
			}
		}
		if !anyIllegit {
			return fmt.Errorf("invariant: bad cycle contains no illegitimate state")
		}
		return nil
	}
	if len(c.Ranks) != len(c.Deadlocks) {
		return fmt.Errorf("invariant: %d ranks for %d deadlocks", len(c.Ranks), len(c.Deadlocks))
	}
	// Every continuation arc between deadlocks must respect the ranking.
	// Successor candidates come from the congruence s/d mod d^(w-1), each
	// confirmed by decoded-window comparison before use; for w == 1 the
	// graph is complete and the congruence degenerates to exactly that.
	step := n / d
	for i, s := range c.Deadlocks {
		base := s / d
		for j := 0; j < d; j++ {
			t := base%step + j*step
			ti, ok := idx[t]
			if !ok {
				continue
			}
			if !continuesViews(p, core.LocalState(s), core.LocalState(t)) {
				return fmt.Errorf("invariant: internal: candidate arc %d -> %d does not overlap", s, t)
			}
			strict := !sys.Legit[s] || !sys.Legit[t]
			if c.Ranks[i] < c.Ranks[ti] || (strict && c.Ranks[i] == c.Ranks[ti]) {
				return fmt.Errorf("invariant: ranking violated on arc %d(rank %d) -> %d(rank %d)",
					s, c.Ranks[i], t, c.Ranks[ti])
			}
		}
	}
	return nil
}

func checkTerminationCert(p *core.Protocol, sys *core.System, c *TerminationCertificate) error {
	if c == nil {
		return nil
	}
	rec := checkerRecurrent(sys)
	if c.RecurrentTArcs != len(rec) {
		return fmt.Errorf("invariant: certificate claims %d recurrent transitions, checker derives %d",
			c.RecurrentTArcs, len(rec))
	}
	if len(rec) == 0 {
		if len(c.Weights) != 0 {
			return fmt.Errorf("invariant: weights present but no recurrent transitions")
		}
		return nil
	}
	n := p.NumLocalStates()
	if len(c.Weights) != n {
		return fmt.Errorf("invariant: %d weights for %d local states", len(c.Weights), n)
	}
	weights := make([]*big.Int, n)
	for i, s := range c.Weights {
		w, ok := new(big.Int).SetString(s, 10)
		if !ok {
			return fmt.Errorf("invariant: weight %d (%q) is not a decimal integer", i, s)
		}
		weights[i] = w
	}
	// Replay every (recurrent transition, context) constraint by direct view
	// surgery: decode the affected neighbor's window, splice in the actor's
	// write, re-encode, and require a strictly negative potential delta.
	lo, hi := p.Window()
	w := p.W()
	d := p.Domain()
	own := p.OwnIndex()
	nCtx := 1
	for i := 1; i < w; i++ {
		nCtx *= d
	}
	combined := make([]int, 2*w-1) // values at offsets lo-hi .. hi-lo from the actor
	at := func(t int) int { return combined[t-(lo-hi)] }
	for _, tr := range rec {
		srcView := p.Decode(tr.Src)
		dstOwn := p.Decode(tr.Dst)[own]
		for code := 0; code < nCtx; code++ {
			// Fill the combined window: the actor's own window from srcView,
			// the rest from the context code (free positions in ascending
			// offset order, matching the analyzer's enumeration only by
			// coincidence — any enumeration covers the same set).
			cc := code
			for t := lo - hi; t <= hi-lo; t++ {
				if t >= lo && t <= hi {
					combined[t-(lo-hi)] = srcView[t-lo]
				} else {
					combined[t-(lo-hi)] = cc % d
					cc /= d
				}
			}
			sum := new(big.Int)
			for o := lo; o <= hi; o++ {
				before := make(core.View, w)
				after := make(core.View, w)
				for m := 0; m < w; m++ {
					t := lo + m - o
					before[m] = at(t)
					after[m] = at(t)
					if t == 0 {
						after[m] = dstOwn
					}
				}
				sum.Sub(sum, weights[core.Encode(before, d)])
				sum.Add(sum, weights[core.Encode(after, d)])
			}
			if sum.Sign() >= 0 {
				return fmt.Errorf("invariant: potential does not decrease on %s in context %d (delta %v)",
					sys.FormatTransition(tr), code, sum)
			}
		}
	}
	return nil
}

// checkerRecurrent is the checker's own support-pruning fixpoint, written
// against an on-any-cycle test per edge rather than the analyzer's
// reachability matrix.
func checkerRecurrent(sys *core.System) []core.LocalTransition {
	arcs := append([]core.LocalTransition(nil), sys.Trans...)
	d := sys.Protocol().Domain()
	for {
		var kept []core.LocalTransition
		for _, t := range arcs {
			if onValueCycle(sys, arcs, d, sys.OwnValue(t.Src), sys.OwnValue(t.Dst)) {
				kept = append(kept, t)
			}
		}
		if len(kept) == len(arcs) {
			return kept
		}
		arcs = kept
	}
}

// onValueCycle reports whether the write edge a -> b closes a cycle in the
// write graph of arcs, i.e. whether a is reachable from b.
func onValueCycle(sys *core.System, arcs []core.LocalTransition, d, a, b int) bool {
	visited := make([]bool, d)
	queue := []int{b}
	visited[b] = true
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == a {
			return true
		}
		for _, t := range arcs {
			y := sys.OwnValue(t.Dst)
			if sys.OwnValue(t.Src) == x && !visited[y] {
				visited[y] = true
				queue = append(queue, y)
			}
		}
	}
	return false
}

func checkSmallKCert(p *core.Protocol, c *SmallKCertificate) error {
	if c == nil {
		return nil
	}
	d := p.Domain()
	for _, k := range c.Checked {
		if k < 2 || k >= p.W() {
			return fmt.Errorf("invariant: small-K certificate checks K=%d outside [2,%d)", k, p.W())
		}
		if k != c.WitnessK && smallRingLivelock(p, k) != nil {
			return fmt.Errorf("invariant: small-K certificate claims K=%d livelock-free but a cycle exists", k)
		}
	}
	if c.WitnessK == 0 {
		return nil
	}
	k := c.WitnessK
	if k < 2 || k >= p.W() {
		return fmt.Errorf("invariant: witness K=%d outside [2,%d)", k, p.W())
	}
	cyc := c.WitnessCycle
	if len(cyc) == 0 {
		return fmt.Errorf("invariant: witness K=%d has no cycle", k)
	}
	r := newSmallRing(p, k)
	codes := make([]int, len(cyc))
	for i, vals := range cyc {
		if len(vals) != k {
			return fmt.Errorf("invariant: witness state %d has %d values, want %d", i, len(vals), k)
		}
		code, mult := 0, 1
		for _, v := range vals {
			if v < 0 || v >= d {
				return fmt.Errorf("invariant: witness value %d outside domain [0,%d)", v, d)
			}
			code += v * mult
			mult *= d
		}
		codes[i] = code
		if r.legit(vals) {
			return fmt.Errorf("invariant: witness state %v is legitimate — not a livelock", vals)
		}
	}
	for i, g := range codes {
		next := codes[(i+1)%len(codes)]
		found := false
		for _, ng := range r.succs(g) {
			if ng == next {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("invariant: witness step %d: no transition %v -> %v",
				i, cyc[i], cyc[(i+1)%len(cyc)])
		}
	}
	return nil
}

// checkClosureClaim re-verifies the closure claim: the context-quantified
// local preservation of LC for K >= w, plus the exhaustive small rings.
func checkClosureClaim(p *core.Protocol, sk *SmallKCertificate) error {
	a, err := newAnalysis(p, Options{}.withDefaults())
	if err != nil {
		return err
	}
	ok, err := a.closureLocal(context.Background())
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("invariant: closure claim fails the context-quantified check")
	}
	for k := 2; k < p.W(); k++ {
		if !smallRingClosure(p, k) {
			return fmt.Errorf("invariant: closure claim fails on the size-%d ring", k)
		}
		if sk == nil || !containsInt(sk.Checked, k) {
			return fmt.Errorf("invariant: closure claim does not cover the size-%d ring", k)
		}
	}
	return nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
