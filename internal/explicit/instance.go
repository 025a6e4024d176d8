// Package explicit is the global-state-space substrate: it instantiates a
// parameterized protocol at a concrete ring size K and model-checks it by
// explicit enumeration of all domain^K global states.
//
// It serves two roles in the reproduction:
//
//  1. Oracle. Every local-reasoning verdict (Theorems 4.2 and 5.14, the
//     synthesis outputs of Section 6) is cross-validated against exhaustive
//     search for concrete K — the paper itself reports model checking its
//     Example 4.2 "for different sizes of ring (5,6,7 and 8 processes)".
//  2. Baseline. It embodies the global-state-exploration approach (STSyn
//     [17], and the methods of [16,26,27]) whose exponential cost in K the
//     paper's local method avoids; the benchmark harness measures exactly
//     that gap.
package explicit

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"paramring/internal/core"
)

// DefaultMaxStates bounds domain^K for an instance. The guard sizes the
// resident per-state tables: with the packed bitset substrate (see
// bitset.go) the dominant table — the I(K) membership cache — costs one
// BIT per global state, so a full-size instance holds 32 MiB of resident
// tables where the former []bool layout held 256 MiB at an eight-times
// smaller ceiling of 1<<24. Per-operation scratch (Tarjan index arrays,
// BFS distance arrays) still scales with the state count; WithMaxStates
// lowers the guard on memory-constrained deployments.
const DefaultMaxStates = 1 << 28

// Option configures an Instance.
type Option func(*Instance)

// WithGlobalPredicate replaces the default locally conjunctive I(K) =
// AND_r LC_r with an arbitrary global predicate over the ring valuation.
// Needed for protocols whose legitimate set is not locally conjunctive,
// such as Dijkstra's token ring ("exactly one process enabled").
func WithGlobalPredicate(f func(vals []int) bool) Option {
	return func(in *Instance) { in.globalI = f }
}

// WithProcessActions overrides the actions of the process at ring position
// pos (0-based), breaking symmetry. Dijkstra's token ring distinguishes
// process 0 this way. NewInstance rejects positions outside [0, K) — a
// misplaced override would otherwise be silently ignored by the successor
// generator and the instance would verify the fully symmetric protocol
// instead of the intended asymmetric one.
func WithProcessActions(pos int, actions []core.Action) Option {
	return func(in *Instance) {
		if in.distinguished == nil {
			in.distinguished = make(map[int][]core.Action)
		}
		in.distinguished[pos] = append([]core.Action(nil), actions...)
	}
}

// WithMaxStates overrides the state-count guard.
func WithMaxStates(n uint64) Option {
	return func(in *Instance) { in.maxStates = n }
}

// WithWorkers sets the number of chunks, each scanned by its own
// goroutine, that the instance splits its whole-state-space operations
// into (CheckStrongConvergence, FindLivelock, Deadlocks,
// CheckWeakConvergence, RecoveryRadius, CheckClosure and instance
// construction; see parallel.go). n <= 0 selects runtime.GOMAXPROCS(0),
// which is also the default; n == 1 runs each scan as one inline chunk.
// Every worker count returns identical results (same verdicts, same
// witnesses), so the choice is purely a time/space trade-off: the global
// side of the paper's Table 1 is domain^K work that the local method
// avoids entirely, and the workers only shrink the constant, never the
// exponent.
//
// With n > 1 the protocol's Guard/Next closures and any WithGlobalPredicate
// function are invoked from multiple goroutines concurrently; they must be
// safe for concurrent use (pure functions, as all zoo protocols are).
func WithWorkers(n int) Option {
	return func(in *Instance) { in.workers = n }
}

// Instance is a protocol instantiated on a ring of K processes. Global
// states are mixed-radix codes in [0, domain^K): process r contributes
// vals[r] * domain^r.
type Instance struct {
	p  *core.Protocol
	k  int
	d  int
	n  uint64
	po []uint64 // po[i] = d^i

	lo, hi int

	maxStates     uint64
	workers       int
	globalI       func(vals []int) bool
	distinguished map[int][]core.Action

	inI       bitset      // cached I membership, one bit per state
	table     *localTable // lazily compiled flat fast path (symmetric instances only)
	tableOnce sync.Once   // guards the lazy build under concurrent queries

	// The incremental-scan substrate (see odometer.go): per-position window
	// incidences, the stride table stride[r*d+v] = v*d^r the successor emit
	// loop adds instead of multiplying, d^(W-1) for the rolling window-code
	// fill, and the packed local legitimacy bits the I(K) fill tests per
	// window code (nil when WithGlobalPredicate overrides I). All four are
	// O(K*W + d^W) bytes — noise next to the bit-per-state tables, and
	// deliberately excluded from TableBytes so the memory-accounting figure
	// stays comparable across engine versions.
	digitWindows [][]digitWindow
	stride       []uint64
	dW1          int
	legitCode    bitset
}

// scratch bundles the per-goroutine decode and successor buffers the
// whole-space scan loops reuse across states, so the hot paths allocate
// nothing per state: the valuation, view and window-code targets of the
// random-access paths, the odometer cursor of the ascending chunk scans,
// and a flat successor buffer that successorsInto grows once and then
// recycles.
type scratch struct {
	vals  []int
	view  core.View
	codes []int32
	succ  []uint64
	od    *odometer
}

// newScratch returns scan scratch sized for this instance.
func (in *Instance) newScratch() *scratch {
	return &scratch{
		vals:  make([]int, in.k),
		view:  make(core.View, in.p.W()),
		codes: make([]int32, in.k),
		od:    in.newOdometer(),
	}
}

// NewInstance instantiates p on a ring of k >= 2 processes.
func NewInstance(p *core.Protocol, k int, opts ...Option) (*Instance, error) {
	return NewInstanceCtx(context.Background(), p, k, opts...)
}

// NewInstanceCtx is NewInstance with cooperative cancellation: the domain^K
// legitimacy precomputation (itself a full state-space scan) polls ctx and
// aborts with ctx.Err() once the context is done.
func NewInstanceCtx(ctx context.Context, p *core.Protocol, k int, opts ...Option) (*Instance, error) {
	if k < 2 {
		return nil, fmt.Errorf("explicit: ring size %d < 2", k)
	}
	in := configure(p, opts)
	for pos := range in.distinguished {
		if pos < 0 || pos >= k {
			return nil, fmt.Errorf("explicit: distinguished process position %d outside ring [0,%d)", pos, k)
		}
	}
	if err := in.size(k); err != nil {
		return nil, err
	}
	if err := in.validateActions(); err != nil {
		return nil, err
	}
	// When I is the default locally conjunctive predicate, the packed
	// per-window-code legitimacy bits let the I(K) fill test K bitset bits
	// per state instead of evaluating K decoded views.
	if in.globalI == nil {
		in.legitCode = legitBits(p)
	}
	// The I(K) fill streams odometer-advanced window codes into the packed
	// membership bitset through the shared scratch machinery — the same
	// zero-alloc discipline as the checker scans. Chunk boundaries are
	// word-aligned (see chunkFor), so the plain word writes of Set never
	// race across workers.
	in.inI = newBitset(in.n)
	in.forEachChunk(func(_ int, lo, hi uint64) {
		if lo >= hi {
			return
		}
		sc := in.newScratch()
		sc.od.reset(lo)
		for id := lo; id < hi; id++ {
			if id&cancelCheckMask == 0 && ctx.Err() != nil {
				return
			}
			if in.inIAt(sc.od) {
				in.inI.Set(id)
			}
			if id+1 < hi {
				sc.od.step()
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return in, nil
}

// configure returns an instance of p with opts applied but no ring size
// yet: the settings every ring size shares.
func configure(p *core.Protocol, opts []Option) *Instance {
	in := &Instance{
		p:         p,
		d:         p.Domain(),
		maxStates: DefaultMaxStates,
		workers:   runtime.GOMAXPROCS(0),
	}
	in.lo, in.hi = p.Window()
	for _, o := range opts {
		o(in)
	}
	if in.workers <= 0 {
		in.workers = runtime.GOMAXPROCS(0)
	}
	return in
}

// size fixes the ring size at k: the state count, checked against the
// uint64 and MaxStates guards, and the incremental-scan substrate — window
// incidences and the stride table for the odometer loops, and d^(W-1) for
// the rolling window-code fill.
func (in *Instance) size(k int) error {
	in.k = k
	if float64(k)*math.Log2(float64(in.d)) > 62 {
		return fmt.Errorf("explicit: %d^%d global states overflow uint64", in.d, k)
	}
	in.n = 1
	in.po = make([]uint64, k+1)
	for i := 0; i <= k; i++ {
		in.po[i] = in.n
		if i < k {
			in.n *= uint64(in.d)
		}
	}
	if in.n > in.maxStates {
		return fmt.Errorf("explicit: %d^%d = %d global states exceeds limit %d", in.d, k, in.n, in.maxStates)
	}
	in.digitWindows = in.buildDigitWindows()
	in.stride = make([]uint64, k*in.d)
	for r := 0; r < k; r++ {
		for v := 0; v < in.d; v++ {
			in.stride[r*in.d+v] = uint64(v) * in.po[r]
		}
	}
	in.dW1 = 1
	for i := 0; i < in.p.W()-1; i++ {
		in.dW1 *= in.d
	}
	return nil
}

// legitBits returns the packed local legitimacy bits: bit c is set when
// local state code c satisfies LC_r.
func legitBits(p *core.Protocol) bitset {
	n := p.NumLocalStates()
	b := newBitset(uint64(n))
	for code := 0; code < n; code++ {
		if p.Legitimate(core.LocalState(code)) {
			b.Set(uint64(code))
		}
	}
	return b
}

// inIAt evaluates I on the odometer's current state: K legitimacy-bit
// reads indexed by the incrementally maintained window codes in the
// default locally conjunctive case, or the caller's global predicate over
// the (already decoded) valuation.
func (in *Instance) inIAt(od *odometer) bool {
	if in.globalI != nil {
		return in.globalI(od.vals)
	}
	for r := 0; r < in.k; r++ {
		if !in.legitCode.Get(uint64(od.codes[r])) {
			return false
		}
	}
	return true
}

// validateActions evaluates every action on every possible local view and
// rejects writes outside the domain — for the base action list AND every
// WithProcessActions override, so Dijkstra-style asymmetric rings get the
// same constructor-time guarantee as symmetric ones. Catching this at
// construction turns a data-dependent panic — which the parallel scan
// paths would raise on a worker goroutine, beyond any recover in main —
// into an ordinary one-line error from NewInstance. Cost is domain^W per
// action list, negligible next to the domain^K legitimacy scan.
func (in *Instance) validateActions() error {
	lists := [][]core.Action{in.p.Actions()}
	positions := make([]int, 0, len(in.distinguished))
	for pos := range in.distinguished {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	for _, pos := range positions {
		lists = append(lists, in.distinguished[pos])
	}
	w := in.p.W()
	views := uint64(1)
	for i := 0; i < w; i++ {
		views *= uint64(in.d)
	}
	view := make(core.View, w)
	for code := uint64(0); code < views; code++ {
		c := code
		for i := 0; i < w; i++ {
			view[i] = int(c % uint64(in.d))
			c /= uint64(in.d)
		}
		for _, actions := range lists {
			for _, a := range actions {
				if !a.Guard(view) {
					continue
				}
				for _, nv := range a.Next(view) {
					if nv < 0 || nv >= in.d {
						return fmt.Errorf("explicit: action %q writes %d outside domain [0,%d) on view %v", a.Name, nv, in.d, []int(view))
					}
				}
			}
		}
	}
	return nil
}

// MustNewInstance is NewInstance that panics on error.
func MustNewInstance(p *core.Protocol, k int, opts ...Option) *Instance {
	in, err := NewInstance(p, k, opts...)
	if err != nil {
		panic(err)
	}
	return in
}

// Protocol returns the underlying parameterized protocol.
func (in *Instance) Protocol() *core.Protocol { return in.p }

// K returns the ring size.
func (in *Instance) K() int { return in.k }

// NumStates returns domain^K.
func (in *Instance) NumStates() uint64 { return in.n }

// Workers returns the effective worker count (see WithWorkers).
func (in *Instance) Workers() int { return in.workers }

// TableBytes returns the heap footprint of the instance's resident
// per-state tables — currently the packed I(K) membership bitset, one bit
// per global state. This is the figure verify.Report and the lrserved
// /metrics gauges surface so operators can see bytes-per-state, and what
// DefaultMaxStates is sized against.
func (in *Instance) TableBytes() uint64 { return in.inI.Bytes() }

// EncodeChecked packs a ring valuation into a state code, validating the
// arity and every per-process value. A value outside [0, domain) would
// otherwise carry into higher-order digits of the mixed-radix code and
// silently alias a DIFFERENT state (e.g. with domain 3, a stray vals[1]=3
// encodes the same id as vals[2]+=1) — so malformed input is an error, not
// a wrong answer. Use this for externally supplied valuations (CLI input,
// test vectors); Encode panics with the same diagnostic for internal
// callers whose valuations are decode outputs by construction.
func (in *Instance) EncodeChecked(vals []int) (uint64, error) {
	if len(vals) != in.k {
		return 0, fmt.Errorf("explicit: %d values for ring of %d processes", len(vals), in.k)
	}
	var id uint64
	for r, v := range vals {
		if v < 0 || v >= in.d {
			return 0, fmt.Errorf("explicit: value %d at ring position %d outside domain [0,%d)", v, r, in.d)
		}
		id += uint64(v) * in.po[r]
	}
	return id, nil
}

// Encode packs a ring valuation into a state code. It panics with a
// diagnostic on malformed input; see EncodeChecked for the error-returning
// variant.
func (in *Instance) Encode(vals []int) uint64 {
	id, err := in.EncodeChecked(vals)
	if err != nil {
		panic(err.Error())
	}
	return id
}

// Decode unpacks a state code into a fresh ring valuation.
func (in *Instance) Decode(id uint64) []int {
	vals := make([]int, in.k)
	in.DecodeInto(id, vals)
	return vals
}

// DecodeInto unpacks a state code into vals (len K) without allocating.
func (in *Instance) DecodeInto(id uint64, vals []int) {
	for r := 0; r < in.k; r++ {
		vals[r] = int(id % uint64(in.d))
		id /= uint64(in.d)
	}
}

// evalI evaluates I on a decoded valuation.
func (in *Instance) evalI(vals []int) bool {
	if in.globalI != nil {
		return in.globalI(vals)
	}
	view := make(core.View, in.p.W())
	for r := 0; r < in.k; r++ {
		in.viewInto(vals, r, view)
		if !in.p.LegitimateView(view) {
			return false
		}
	}
	return true
}

// InI reports whether the state is in the legitimate set I(K).
func (in *Instance) InI(id uint64) bool { return in.inI.Get(id) }

// viewInto fills view with the window of process r over vals.
func (in *Instance) viewInto(vals []int, r int, view core.View) {
	for i := 0; i < len(view); i++ {
		idx := ((r+in.lo+i)%in.k + in.k) % in.k
		view[i] = vals[idx]
	}
}

// View returns the decoded local view of process r in state id.
func (in *Instance) View(id uint64, r int) core.View {
	vals := make([]int, in.k)
	in.DecodeInto(id, vals)
	view := make(core.View, in.p.W())
	in.viewInto(vals, r, view)
	return view
}

// actionsFor returns the actions executed by ring position r.
func (in *Instance) actionsFor(r int) []core.Action {
	if a, ok := in.distinguished[r]; ok {
		return a
	}
	return in.p.Actions()
}

// GlobalTransition records one outgoing global transition of a state.
type GlobalTransition struct {
	To      uint64
	Process int
	Action  string
}

// SuccessorsDetailed returns every outgoing global transition of id, sorted
// by (Process, To, Action) and deduplicated.
func (in *Instance) SuccessorsDetailed(id uint64) []GlobalTransition {
	vals := make([]int, in.k)
	view := make(core.View, in.p.W())
	in.DecodeInto(id, vals)
	var out []GlobalTransition
	for r := 0; r < in.k; r++ {
		in.viewInto(vals, r, view)
		for _, a := range in.actionsFor(r) {
			if !a.Guard(view) {
				continue
			}
			for _, nv := range a.Next(view) {
				if nv < 0 || nv >= in.d {
					panic(fmt.Sprintf("explicit: action %q writes %d outside domain", a.Name, nv))
				}
				to := id + uint64(nv)*in.po[r] - uint64(vals[r])*in.po[r]
				out = append(out, GlobalTransition{To: to, Process: r, Action: a.Name})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Process != b.Process {
			return a.Process < b.Process
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Action < b.Action
	})
	// Dedup identical records.
	w := 0
	for i, t := range out {
		if i == 0 || t != out[i-1] {
			out[w] = t
			w++
		}
	}
	return out[:w]
}

// Successors returns the distinct successor states of id in sorted order.
// The returned slice is freshly allocated and safe to retain. Symmetric
// instances use the compiled local-transition table (see fastpath.go);
// instances with distinguished processes fall back to guard evaluation.
func (in *Instance) Successors(id uint64) []uint64 {
	succ := in.successorsInto(id, in.newScratch())
	return append([]uint64(nil), succ...)
}

// successorsInto computes the sorted, deduplicated successor set of id
// into the scratch's flat buffer and returns it. The slice is valid only
// until the next successorsInto call on the same scratch — the whole-space
// scan loops consume it immediately, so the per-state allocation the old
// per-call slices paid is gone. Callers that retain successors (the Tarjan
// frames, Successors) copy.
func (in *Instance) successorsInto(id uint64, sc *scratch) []uint64 {
	out := sc.succ[:0]
	if fastOut, ok := in.successorsFast(id, sc, out); ok {
		out = fastOut
	} else {
		in.DecodeInto(id, sc.vals)
		out = in.successorsSymbolic(id, sc.vals, sc.view, out)
	}
	out = sortDedup(out)
	sc.succ = out // retain the grown buffer for the next state
	return out
}

// successorsSymbolic appends the successors of id by guard evaluation over
// the (already decoded) valuation — the reference path instances with
// distinguished processes use, and the oracle the differential fuzz pins
// the fast path against. Emission order matches SuccessorsDetailed's
// pre-sort order; callers sort and deduplicate.
func (in *Instance) successorsSymbolic(id uint64, vals []int, view core.View, out []uint64) []uint64 {
	for r := 0; r < in.k; r++ {
		in.viewInto(vals, r, view)
		for _, a := range in.actionsFor(r) {
			if !a.Guard(view) {
				continue
			}
			for _, nv := range a.Next(view) {
				if nv < 0 || nv >= in.d {
					panic(fmt.Sprintf("explicit: action %q writes %d outside domain", a.Name, nv))
				}
				out = append(out, id+uint64(nv)*in.po[r]-uint64(vals[r])*in.po[r])
			}
		}
	}
	return out
}

// sortDedup sorts out ascending and removes duplicates in place.
// slices.Sort rather than sort.Slice: this runs once per state in every
// whole-space scan, and the reflection-based swapper of sort.Slice costs
// two heap allocations per call where the generic sort costs none.
func sortDedup(out []uint64) []uint64 {
	slices.Sort(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// successorsAt computes the sorted, deduplicated successor set of the
// odometer's current state — the chunk-scan counterpart of successorsInto:
// no decode and no window encode at all on the fast path, because the
// odometer has both the valuation and every window code current. The
// returned slice is valid until the next successorsAt/successorsInto call
// on the same scratch.
func (in *Instance) successorsAt(sc *scratch) []uint64 {
	out := sc.succ[:0]
	if tbl := in.fast(); tbl != nil {
		out = emitFast(in, tbl, sc.od.id, sc.od.vals, sc.od.codes, out)
	} else {
		out = in.successorsSymbolic(sc.od.id, sc.od.vals, sc.view, out)
	}
	out = sortDedup(out)
	sc.succ = out
	return out
}

// deadlockAt reports whether the odometer's current state is a global
// deadlock, with early exit on the first enabled process.
func (in *Instance) deadlockAt(sc *scratch) bool {
	if tbl := in.fast(); tbl != nil {
		return tbl.deadlocked(sc.od.codes)
	}
	for r := 0; r < in.k; r++ {
		in.viewInto(sc.od.vals, r, sc.view)
		for _, a := range in.actionsFor(r) {
			if a.Guard(sc.view) && len(a.Next(sc.view)) > 0 {
				return false
			}
		}
	}
	return true
}

// enabledCountAt counts the enabled processes of the odometer's current
// state (no early exit; the parity contract the fuzz target checks
// against EnabledProcesses).
func (in *Instance) enabledCountAt(sc *scratch) int {
	count := 0
	if tbl := in.fast(); tbl != nil {
		for r := 0; r < in.k; r++ {
			if tbl.enabled.Get(uint64(sc.od.codes[r])) {
				count++
			}
		}
		return count
	}
	for r := 0; r < in.k; r++ {
		in.viewInto(sc.od.vals, r, sc.view)
		for _, a := range in.actionsFor(r) {
			if a.Guard(sc.view) && len(a.Next(sc.view)) > 0 {
				count++
				break
			}
		}
	}
	return count
}

// DecodeSweep walks the whole state space with the incremental odometer and
// folds every valuation and window code into a checksum. It is the
// decode-only floor of the scan loop — what every whole-space pass pays
// before doing any per-state work — measured by the lrbench scanloop rows
// as a states/sec figure.
func (in *Instance) DecodeSweep() uint64 {
	var sum uint64
	sc := in.newScratch()
	sc.od.reset(0)
	for id := uint64(0); id < in.n; id++ {
		sum += uint64(sc.od.vals[0]) + uint64(uint32(sc.od.codes[in.k-1]))
		if id+1 < in.n {
			sc.od.step()
		}
	}
	return sum
}

// SuccessorSweep generates the successor set of every state in one
// ascending odometer scan and returns the total number of distinct
// successor edges — the successors-only scan-loop cost, measured by the
// lrbench scanloop rows next to DecodeSweep and the full checks.
func (in *Instance) SuccessorSweep() uint64 {
	var edges uint64
	sc := in.newScratch()
	sc.od.reset(0)
	for id := uint64(0); id < in.n; id++ {
		edges += uint64(len(in.successorsAt(sc)))
		if id+1 < in.n {
			sc.od.step()
		}
	}
	return edges
}

// EnabledProcesses returns the ring positions with at least one enabled
// action in state id.
func (in *Instance) EnabledProcesses(id uint64) []int {
	vals := make([]int, in.k)
	view := make(core.View, in.p.W())
	in.DecodeInto(id, vals)
	var out []int
	for r := 0; r < in.k; r++ {
		in.viewInto(vals, r, view)
		for _, a := range in.actionsFor(r) {
			if a.Guard(view) && len(a.Next(view)) > 0 {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// HasTransition reports whether (from, to) is a global transition.
func (in *Instance) HasTransition(from, to uint64) bool {
	return in.hasTransitionScratch(from, to, in.newScratch())
}

// hasTransitionScratch is HasTransition with caller-provided scratch; used
// by the predecessor-generating backward BFS.
func (in *Instance) hasTransitionScratch(from, to uint64, sc *scratch) bool {
	for _, s := range in.successorsInto(from, sc) {
		if s == to {
			return true
		}
	}
	return false
}

// IsDeadlock reports whether no process is enabled in id (the global
// deadlock of Section 2.2: every guard false at every position).
func (in *Instance) IsDeadlock(id uint64) bool {
	return in.isDeadlockScratch(id, in.newScratch())
}

// isDeadlockScratch is IsDeadlock with caller-provided scratch.
func (in *Instance) isDeadlockScratch(id uint64, sc *scratch) bool {
	if n, ok := in.enabledCountFast(id, sc); ok {
		return n == 0
	}
	return len(in.EnabledProcesses(id)) == 0
}

// Format renders a state compactly using the protocol's value names.
func (in *Instance) Format(id uint64) string {
	return in.p.FormatGlobal(in.Decode(id))
}
