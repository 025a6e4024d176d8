// Package core models parameterized ring protocols in the style of Farahat &
// Ebnenasir, "Local Reasoning for Global Convergence of Parameterized Rings"
// (ICDCS 2012), Section 2.
//
// A parameterized protocol p(K) is given by a single representative process
// P_r. Every process owns one variable x_r over a finite domain D (constant
// in K) and reads a contiguous window x_{r+Lo} .. x_{r+Hi} of ring neighbors
// (Lo <= 0 <= Hi, constant in K). The local state of P_r is the valuation of
// that window; the protocol's code is a set of guarded commands (actions)
// over the window that write x_r. The set of legitimate states I(K) is
// locally conjunctive: I(K) = AND over r of LC_r, with LC_r a predicate on
// the window.
//
// This class covers every example in the paper — unidirectional protocols
// read the window [-1, 0] and bidirectional maximal matching reads [-1, 1].
// Processes with several owned variables are modeled by a product domain
// (see Tuple).
package core

import (
	"errors"
	"fmt"
	"strings"
)

// MaxLocalStates bounds the size of the representative process's local state
// space (domain^window). The paper's examples peak at 27; the bound exists to
// catch accidental combinatorial explosions in user specs.
const MaxLocalStates = 1 << 20

// LocalState is the mixed-radix code of a local state: a valuation of the
// read window of the representative process. For a window of width w over
// domain d, codes range over [0, d^w), with the value at window index i
// (offset Lo+i) contributing value * d^i.
type LocalState int

// View is a decoded local state: View[i] is the value of the variable at
// ring offset Lo+i relative to the process. The process's own variable sits
// at index -Lo.
type View []int

// At returns the value at ring offset o (Lo <= o <= Hi) given the window
// start lo.
func (v View) At(o, lo int) int { return v[o-lo] }

// Encode packs a view into its mixed-radix LocalState code.
func Encode(view View, domain int) LocalState {
	code := 0
	mult := 1
	for _, x := range view {
		if x < 0 || x >= domain {
			panic(fmt.Sprintf("core: value %d out of domain [0,%d)", x, domain))
		}
		code += x * mult
		mult *= domain
	}
	return LocalState(code)
}

// EncodeWeights returns the mixed-radix place values of Encode for a
// window of width w over the given domain: EncodeWeights(d, w)[i] == d^i,
// the coefficient the value at window index i contributes to the code.
// Incremental encoders — the explicit engine's odometer scan is the
// in-tree consumer — keep a window's code current across a single-value
// change by adding (new-old)*weight instead of re-encoding the whole
// window, which is what turns a K-process re-encode per state into O(1)
// amortized work per scan step.
func EncodeWeights(domain, w int) []int {
	weights := make([]int, w)
	mult := 1
	for i := 0; i < w; i++ {
		weights[i] = mult
		mult *= domain
	}
	return weights
}

// Decode unpacks a LocalState code into a fresh view of width w.
func Decode(ls LocalState, domain, w int) View {
	view := make(View, w)
	c := int(ls)
	for i := 0; i < w; i++ {
		view[i] = c % domain
		c /= domain
	}
	if c != 0 {
		panic(fmt.Sprintf("core: local state %d out of range for domain %d width %d", ls, domain, w))
	}
	return view
}

// Action is a guarded command of the representative process:
//
//	Name: grd(view) -> x_r := one value from Next(view)
//
// Next may return several candidate values, modeling nondeterministic
// assignments such as the paper's "m_r := right | left" (action A2 of
// Example 4.2). Returning the current value of x_r models a stuttering (and
// hence self-enabling) transition; returning an empty slice means the action
// is effectively disabled even when Guard holds.
type Action struct {
	Name  string
	Guard func(v View) bool
	Next  func(v View) []int
}

// Config assembles a Protocol. All fields except ValueNames are required.
type Config struct {
	// Name identifies the protocol in output and witnesses.
	Name string
	// Domain is the size d of each process variable's domain.
	Domain int
	// ValueNames optionally names domain values ("left", "self", "right");
	// the first letter of each is used in compact state strings ("lsr").
	ValueNames []string
	// Lo, Hi delimit the read window: the process reads x_{r+Lo}..x_{r+Hi}.
	// Lo <= 0 <= Hi is required, and the window must include the own
	// variable (offset 0), which is the only writable one.
	Lo, Hi int
	// Actions are the guarded commands of the representative process. An
	// empty slice is legal: synthesis commonly starts from an empty protocol
	// (the paper's 3-coloring, 2-coloring and sum-not-two inputs).
	Actions []Action
	// Legit is the local legitimacy predicate LC_r over the window.
	Legit func(v View) bool
}

// Protocol is an immutable parameterized ring protocol description.
type Protocol struct {
	name       string
	domain     int
	valueNames []string
	lo, hi     int
	actions    []Action
	legit      func(v View) bool
}

// New validates cfg and builds a Protocol.
func New(cfg Config) (*Protocol, error) {
	if cfg.Name == "" {
		return nil, errors.New("core: protocol name is required")
	}
	if cfg.Domain < 2 {
		return nil, fmt.Errorf("core: domain must be >= 2, got %d", cfg.Domain)
	}
	if cfg.Lo > 0 || cfg.Hi < 0 {
		return nil, fmt.Errorf("core: window [%d,%d] must contain offset 0", cfg.Lo, cfg.Hi)
	}
	if cfg.Legit == nil {
		return nil, errors.New("core: legitimacy predicate LC_r is required")
	}
	if cfg.ValueNames != nil && len(cfg.ValueNames) != cfg.Domain {
		return nil, fmt.Errorf("core: %d value names for domain %d", len(cfg.ValueNames), cfg.Domain)
	}
	w := cfg.Hi - cfg.Lo + 1
	n := 1
	for i := 0; i < w; i++ {
		n *= cfg.Domain
		if n > MaxLocalStates {
			return nil, fmt.Errorf("core: local state space %d^%d exceeds limit %d", cfg.Domain, w, MaxLocalStates)
		}
	}
	for i, a := range cfg.Actions {
		if a.Guard == nil || a.Next == nil {
			return nil, fmt.Errorf("core: action %d (%q) missing Guard or Next", i, a.Name)
		}
	}
	names := append([]string(nil), cfg.ValueNames...)
	if names == nil {
		names = make([]string, cfg.Domain)
		for i := range names {
			names[i] = fmt.Sprintf("%d", i)
		}
	}
	return &Protocol{
		name:       cfg.Name,
		domain:     cfg.Domain,
		valueNames: names,
		lo:         cfg.Lo,
		hi:         cfg.Hi,
		actions:    append([]Action(nil), cfg.Actions...),
		legit:      cfg.Legit,
	}, nil
}

// MustNew is New that panics on error; intended for the static protocol zoo
// and tests.
func MustNew(cfg Config) *Protocol {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the protocol name.
func (p *Protocol) Name() string { return p.name }

// Domain returns the domain size d.
func (p *Protocol) Domain() int { return p.domain }

// ValueNames returns the (possibly defaulted) domain value names.
func (p *Protocol) ValueNames() []string { return append([]string(nil), p.valueNames...) }

// Window returns the read window offsets [lo, hi].
func (p *Protocol) Window() (lo, hi int) { return p.lo, p.hi }

// W returns the window width hi-lo+1.
func (p *Protocol) W() int { return p.hi - p.lo + 1 }

// OwnIndex returns the window index of the process's own variable.
func (p *Protocol) OwnIndex() int { return -p.lo }

// NumLocalStates returns d^w, the size of the local state space S_r^l.
func (p *Protocol) NumLocalStates() int {
	n := 1
	for i := 0; i < p.W(); i++ {
		n *= p.domain
	}
	return n
}

// Actions returns a copy of the action list.
func (p *Protocol) Actions() []Action { return append([]Action(nil), p.actions...) }

// Encode packs a view using this protocol's domain.
func (p *Protocol) Encode(v View) LocalState { return Encode(v, p.domain) }

// Decode unpacks a local state code using this protocol's domain and width.
func (p *Protocol) Decode(ls LocalState) View { return Decode(ls, p.domain, p.W()) }

// Legitimate reports whether the local state satisfies LC_r.
func (p *Protocol) Legitimate(ls LocalState) bool { return p.legit(p.Decode(ls)) }

// LegitimateView reports whether a decoded view satisfies LC_r.
func (p *Protocol) LegitimateView(v View) bool { return p.legit(v) }

// Unidirectional reports whether every process reads only itself and left
// neighbors (Hi == 0), which makes the ring unidirectional: information, and
// hence enablement, flows only rightward. The livelock-freedom theorems of
// the paper's Section 5 require this, but it is not enough for them: their
// lemmas are proven for window [-1,0], where P_{i+1} is the unique reader
// of P_i's writes. On a wider window [lo,0], lo <= -2, P_{i+2} reads them
// too, and ltg.TheoremScope withholds Theorem 5.14's proof.
func (p *Protocol) Unidirectional() bool { return p.hi == 0 && p.lo < 0 }

// WithActions returns a copy of p with extra actions appended. Used to add
// synthesized convergence actions to a non-stabilizing base protocol.
func (p *Protocol) WithActions(name string, extra ...Action) *Protocol {
	q := *p
	if name != "" {
		q.name = name
	}
	q.actions = append(append([]Action(nil), p.actions...), extra...)
	return &q
}

// WithName returns a copy of p with a different name.
func (p *Protocol) WithName(name string) *Protocol {
	q := *p
	q.name = name
	return &q
}

// FormatView renders a view as the paper's compact string, e.g. "lls" for
// <left,left,self>: when all value names start with distinct letters, only
// the first letter of each is used; otherwise names are joined with commas.
func (p *Protocol) FormatView(v View) string {
	compact := true
	seen := map[byte]bool{}
	for _, n := range p.valueNames {
		if n == "" || seen[n[0]] {
			compact = false
			break
		}
		seen[n[0]] = true
	}
	var b strings.Builder
	for i, x := range v {
		n := p.valueNames[x]
		if compact {
			b.WriteByte(n[0])
			continue
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
	}
	return b.String()
}

// FormatState renders a local state code via FormatView.
func (p *Protocol) FormatState(ls LocalState) string { return p.FormatView(p.Decode(ls)) }

// FormatGlobal renders a ring valuation (one value per process) compactly.
func (p *Protocol) FormatGlobal(vals []int) string {
	v := make(View, len(vals))
	copy(v, vals)
	return p.FormatView(v)
}
