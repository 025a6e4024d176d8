package explicit

import (
	"context"
	"fmt"
	"runtime/trace"
)

// cancelCheckMask throttles context polls in the hot scan loops: ctx.Err()
// is consulted once per (cancelCheckMask+1) states, so cancellation latency
// stays in the microseconds while the per-state overhead stays one cheap
// mask-and-branch.
const cancelCheckMask = 4095

// Deadlocks returns all global deadlock states (no enabled process), in
// increasing state-code order. The scan rides the odometer: the deadlock
// test reads one enabled bit per process, indexed by incrementally
// maintained window codes.
func (in *Instance) Deadlocks() []uint64 { return in.deadlocks(false) }

// IllegitimateDeadlocks returns the global deadlocks outside I(K) — the
// states Theorem 4.2 predicts from local deadlock cycles in the RCG. The
// explicit scan is the oracle those predictions are cross-validated
// against.
func (in *Instance) IllegitimateDeadlocks() []uint64 { return in.deadlocks(true) }

// ClosureViolation describes a transition that leaves I — a failure of
// the closure half of self-stabilization (Section 2.2), which both
// Theorem 4.2 and the Section 6 synthesis assume.
type ClosureViolation struct {
	From, To uint64
	Process  int
	Action   string
}

// CheckClosure verifies that I(K) is closed in the protocol (the closure
// half of self-stabilization, Section 2.2): every transition from a state
// in I lands in I. Returns nil if closed, else the violation with the
// smallest source state code.
//
// The scan is two-phase: the odometer sweep tests each I-state's successor
// set (flat-table fast path) for any escape from I, and only a hit pays
// the allocating SuccessorsDetailed walk that names the violating process
// and action — so the common all-closed case never leaves the zero-alloc
// loop while the reported witness is byte-identical to the naive scan's
// (smallest source id, then the first violating transition in detailed
// order).
func (in *Instance) CheckClosure() *ClosureViolation {
	id, ok := in.firstState(context.Background(), true)
	if !ok {
		return nil
	}
	return in.closureWitness(id)
}

// closureEscapeAt reports whether some successor of the odometer's current
// state leaves I.
func (in *Instance) closureEscapeAt(sc *scratch) bool {
	for _, s := range in.successorsAt(sc) {
		if !in.inI.Get(s) {
			return true
		}
	}
	return false
}

// closureWitness re-derives the named violation at a source state the scan
// already proved escapes I: the first not-in-I transition in
// SuccessorsDetailed order, exactly what the pre-two-phase scan reported.
func (in *Instance) closureWitness(id uint64) *ClosureViolation {
	for _, t := range in.SuccessorsDetailed(id) {
		if !in.inI.Get(t.To) {
			return &ClosureViolation{From: id, To: t.To, Process: t.Process, Action: t.Action}
		}
	}
	return nil
}

// FindLivelock searches for a livelock: a cycle of global transitions that
// stays entirely outside I(K) (Section 2.3's definition via Proposition
// 2.1). It returns the states of one such cycle (in order; the last state
// has a transition back to the first), or nil when Delta_p | not-I is
// acyclic. Implemented as an iterative Tarjan SCC over the not-I-restricted
// transition graph, materialized up front as a CSR adjacency by chunked
// ascending odometer sweeps when the instance fits the edge budget (the
// Tarjan's random-access expansions then cost two array reads instead of a
// decode), and generated on the fly past the budget.
func (in *Instance) FindLivelock() []uint64 {
	cycle, _ := in.FindLivelockCtx(context.Background())
	return cycle
}

// FindLivelockCtx is FindLivelock with cooperative cancellation: both the
// CSR sweep and the Tarjan walk poll ctx every few thousand states and
// return ctx.Err() (with a nil cycle) once the context is done.
func (in *Instance) FindLivelockCtx(ctx context.Context) ([]uint64, error) {
	if g, ok := in.buildNotIGraph(ctx); ok {
		return in.findLivelock(ctx, g.succ)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := in.newScratch()
	return in.findLivelock(ctx, func(id uint64) []uint64 {
		if in.inI.Get(id) {
			return nil
		}
		// The expansion itself runs in shared scratch; only the filtered
		// not-I successors are copied out, because the Tarjan frames retain
		// the returned slice across arbitrarily many later expansions.
		succ := in.successorsInto(id, sc)
		out := make([]uint64, 0, len(succ))
		for _, s := range succ {
			if !in.inI.Get(s) {
				out = append(out, s)
			}
		}
		return out
	})
}

// findLivelock is the Tarjan core of FindLivelock, parameterized over the
// provider of not-I-restricted successor lists: the CSR adjacency, or the
// on-the-fly expansion past the edge budget. Same traversal order over the
// same (sorted) adjacency means the same witness cycle either way.
// Cancellation is polled once per cancelCheckMask+1 visited states.
func (in *Instance) findLivelock(ctx context.Context, restricted func(id uint64) []uint64) ([]uint64, error) {
	defer trace.StartRegion(ctx, "explicit.livelockTarjan").End()
	const unvisited = -1
	index := make([]int32, in.n)
	low := make([]int32, in.n)
	onStack := newBitset(in.n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack   []uint64
		count   int32
		frames  []mcFrame
		sccSeed = uint64(0)
		found   []uint64
	)
	for root := uint64(0); root < in.n; root++ {
		if in.inI.Get(root) || index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], mcFrame{v: root})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.succ == nil {
				index[v] = count
				low[v] = count
				count++
				if count&cancelCheckMask == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				stack = append(stack, v)
				onStack.Set(v)
				f.succ = restricted(v)
			}
			advanced := false
			for f.next < len(f.succ) {
				w := f.succ[f.next]
				f.next++
				if w == v {
					// Self-loop: immediate livelock.
					return []uint64{v}, nil
				}
				if index[w] == unvisited {
					frames = append(frames, mcFrame{v: w})
					advanced = true
					break
				}
				if onStack.Get(w) && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				size := 0
				for i := len(stack) - 1; ; i-- {
					size++
					if stack[i] == v {
						break
					}
				}
				if size > 1 {
					sccSeed = v
					// Member set of this SCC.
					members := make(map[uint64]bool, size)
					for i := 0; i < size; i++ {
						w := stack[len(stack)-1-i]
						members[w] = true
					}
					found = in.cycleWithin(sccSeed, members)
					return found, nil
				}
				// Trivial SCC: pop it.
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack.Clear(w)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return nil, nil
}

type mcFrame struct {
	v    uint64
	succ []uint64
	next int
}

// cycleWithin extracts an explicit cycle through seed inside a nontrivial
// SCC given by members: DFS from a successor of seed back to seed.
func (in *Instance) cycleWithin(seed uint64, members map[uint64]bool) []uint64 {
	// BFS from seed within members, tracking parents, until seed is re-reached.
	type edge struct{ from, to uint64 }
	parent := make(map[uint64]uint64)
	queue := []uint64{seed}
	visited := map[uint64]bool{seed: true}
	var closing *edge
	for len(queue) > 0 && closing == nil {
		u := queue[0]
		queue = queue[1:]
		for _, w := range in.Successors(u) {
			if !members[w] || in.inI.Get(w) {
				continue
			}
			if w == seed {
				closing = &edge{from: u, to: w}
				break
			}
			if !visited[w] {
				visited[w] = true
				parent[w] = u
				queue = append(queue, w)
			}
		}
	}
	if closing == nil {
		// Should not happen inside a nontrivial SCC.
		return []uint64{seed}
	}
	var rev []uint64
	for v := closing.from; v != seed; v = parent[v] {
		rev = append(rev, v)
	}
	cycle := []uint64{seed}
	for i := len(rev) - 1; i >= 0; i-- {
		cycle = append(cycle, rev[i])
	}
	return cycle
}

// IsLivelock verifies a candidate cycle: consecutive states (cyclically)
// must be global transitions and every state must be outside I.
func (in *Instance) IsLivelock(cycle []uint64) bool {
	if len(cycle) == 0 {
		return false
	}
	for i, s := range cycle {
		if in.inI.Get(s) {
			return false
		}
		next := cycle[(i+1)%len(cycle)]
		if !in.HasTransition(s, next) {
			return false
		}
	}
	return true
}

// ConvergenceReport is the verdict of CheckStrongConvergence.
type ConvergenceReport struct {
	// Converges is true when the protocol strongly converges to I(K):
	// no deadlock outside I and no livelock (Proposition 2.1).
	Converges bool
	// DeadlockWitness, when non-nil, is a global deadlock outside I.
	DeadlockWitness *uint64
	// LivelockWitness, when non-empty, is a cycle of states outside I.
	LivelockWitness []uint64
	// StatesExplored counts global states examined (= domain^K; recorded for
	// the local-vs-global cost experiments).
	StatesExplored uint64
}

// CheckStrongConvergence decides strong convergence to I(K) by Proposition
// 2.1: deadlock-freedom in not-I plus livelock-freedom in Delta_p | not-I.
// The deadlock witness is the smallest-coded illegitimate deadlock, and
// the livelock witness is FindLivelock's cycle, at every worker count.
func (in *Instance) CheckStrongConvergence() ConvergenceReport {
	rep, _ := in.CheckStrongConvergenceCtx(context.Background())
	return rep
}

// CheckStrongConvergenceCtx is CheckStrongConvergence with cooperative
// cancellation: both the deadlock scan and the livelock Tarjan poll ctx
// periodically (in every chunk) and the check returns
// ctx.Err() with a zero-value report once the context is done — the hook
// that makes service deadlines real on multi-second state spaces.
func (in *Instance) CheckStrongConvergenceCtx(ctx context.Context) (ConvergenceReport, error) {
	rep := ConvergenceReport{StatesExplored: in.n}
	scan := trace.StartRegion(ctx, "explicit.deadlockScan")
	id, ok := in.firstState(ctx, false)
	scan.End()
	if err := ctx.Err(); err != nil {
		return ConvergenceReport{}, err
	}
	if ok {
		rep.DeadlockWitness = &id
		return rep, nil
	}
	cycle, err := in.FindLivelockCtx(ctx)
	if err != nil {
		return ConvergenceReport{}, err
	}
	if cycle != nil {
		rep.LivelockWitness = cycle
		return rep, nil
	}
	rep.Converges = true
	return rep, nil
}

// CheckWeakConvergence reports whether from every state some computation
// reaches I (weak convergence, Section 2.2), together with the states that
// cannot reach I at all when the answer is false: the states that
// RecoveryDistances marks -1, in ascending order.
func (in *Instance) CheckWeakConvergence() (bool, []uint64) {
	dist := in.RecoveryDistances()
	var stuck []uint64
	for id := uint64(0); id < in.n; id++ {
		if dist[id] < 0 {
			stuck = append(stuck, id)
		}
	}
	return len(stuck) == 0, stuck
}

// RecoveryRadius returns the maximum and mean over all states of the
// shortest number of transitions needed to reach I (states already in I
// count 0) — the convergence-time metric of the X3 experiment. The bool is
// false when some state cannot reach I at all (the radius then ignores
// such states). Both figures come from RecoveryDistances.
func (in *Instance) RecoveryRadius() (max int, mean float64, allReach bool) {
	dist := in.RecoveryDistances()
	allReach = true
	var sum, cnt uint64
	for id := uint64(0); id < in.n; id++ {
		if dist[id] < 0 {
			allReach = false
			continue
		}
		if int(dist[id]) > max {
			max = int(dist[id])
		}
		sum += uint64(dist[id])
		cnt++
	}
	if cnt > 0 {
		mean = float64(sum) / float64(cnt)
	}
	return max, mean, allReach
}

// FormatCycle renders a livelock cycle as the paper does, e.g.
// "<1000, 1100, 0100, ...>".
func (in *Instance) FormatCycle(cycle []uint64) string {
	s := "<"
	for i, id := range cycle {
		if i > 0 {
			s += ", "
		}
		s += in.Format(id)
	}
	return s + ">"
}

// Computation replays a schedule: starting from state id, it applies, at
// each step, a transition by the given process (which must be enabled),
// returning the visited states including the start. An error is returned if
// a scheduled process is not enabled or has a nondeterministic choice (use
// ComputationChoose for those).
func (in *Instance) Computation(start uint64, schedule []int) ([]uint64, error) {
	states := []uint64{start}
	cur := start
	for step, r := range schedule {
		var tos []uint64
		for _, t := range in.SuccessorsDetailed(cur) {
			if t.Process == r {
				tos = append(tos, t.To)
			}
		}
		switch len(tos) {
		case 0:
			return states, fmt.Errorf("explicit: step %d: process %d not enabled in %s", step, r, in.Format(cur))
		case 1:
			cur = tos[0]
		default:
			return states, fmt.Errorf("explicit: step %d: process %d has %d choices; use ComputationChoose", step, r, len(tos))
		}
		states = append(states, cur)
	}
	return states, nil
}

// IsWeaklyFairCycle reports whether a livelock cycle is admissible under a
// weakly fair daemon: no process that is continuously enabled along the
// whole cycle fails to execute in it. By Corollary 5.7 every livelock on a
// unidirectional ring trivially satisfies this (no process is continuously
// enabled at all), which is the paper's point that weak fairness does not
// help against livelocks.
func (in *Instance) IsWeaklyFairCycle(cycle []uint64) bool {
	if !in.IsLivelock(cycle) {
		return false
	}
	executes := make(map[int]bool)
	for i, s := range cycle {
		next := cycle[(i+1)%len(cycle)]
		for _, t := range in.SuccessorsDetailed(s) {
			if t.To == next {
				executes[t.Process] = true
			}
		}
	}
	for p := 0; p < in.k; p++ {
		continuously := true
		for _, s := range cycle {
			enabled := false
			for _, e := range in.EnabledProcesses(s) {
				if e == p {
					enabled = true
					break
				}
			}
			if !enabled {
				continuously = false
				break
			}
		}
		if continuously && !executes[p] {
			return false
		}
	}
	return true
}
