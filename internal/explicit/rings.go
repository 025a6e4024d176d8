package explicit

import (
	"context"
	"math"
	"runtime/trace"
	"sync/atomic"

	"paramring/internal/core"
)

// Bounded cross-validation asks the explicit engine two yes/no questions
// per ring size K — is there a global deadlock outside I(K), and is there
// a cycle inside not-I(K)? — for every K up to a bound. CheckRings answers
// them without the witness machinery of Instance:
//
//   - the K-independent tables (validated actions, the flat local
//     transition table, the local legitimacy bits) are built once per
//     call instead of once per K, and one workspace sized for the largest
//     K serves every ring size;
//   - both questions are decided on the quotient by rotation (symmetry.go
//     states why that is sound): per K, one ascending sweep visits only
//     the representative of each rotation orbit (orbits.go), decides
//     membership in I(K) on the fly and, for each not-I representative,
//     emits the orbits of its successors. A representative with none is an
//     illegitimate deadlock, because an enabled process always emits at
//     least one move;
//   - the cycle question is a Kahn peel over those orbit edges: repeatedly
//     remove orbits of in-degree zero, and a cycle exists exactly when some
//     orbit is never removed. A quotient cycle lifts to a cycle of the
//     full graph through the rotations of its states; an edge from an
//     orbit to itself counts as a self-loop (it is a stuttering move).
//     Orbits in I get no out-edges, so they are sinks and never lie on a
//     cycle; the peel therefore needs neither the I(K) bitset, nor sorted
//     rows, nor deduplicated edges (a repeated edge is counted in once and
//     out once).

// RingCheck is one ring size's answer to the two cross-validation
// questions.
type RingCheck struct {
	// K is the ring size.
	K int
	// States is domain^K.
	States uint64
	// TableBytes is what Instance.TableBytes reports at this ring size, so
	// callers' memory accounting does not depend on how the check ran.
	TableBytes uint64
	// Deadlock reports a global deadlock outside I(K).
	Deadlock bool
	// Livelock reports a cycle of global transitions outside I(K). It is
	// computed only when CheckRings is asked for it, and false otherwise.
	Livelock bool
}

// CheckRings answers the cross-validation questions for every ring size
// K = 2..maxK, in ascending order: whether a global deadlock lies outside
// I(K), and, when livelock is set, whether a livelock does. Per K the
// answers equal those of NewInstanceCtx(ctx, p, K, opts...) — Deadlock is
// len(IllegitimateDeadlocks()) > 0 and Livelock is FindLivelockCtx() !=
// nil — and they do not depend on the worker count.
//
// With WithWorkers > 1 each K's sweep is sharded into word-aligned chunks
// like the other scans, of the orbit list or, without livelock, of the
// state codes; the peel stays sequential. With livelock, a ring whose
// orbit edges could exceed the CSR budget or whose states exceed 2^32 is
// checked through a per-K Instance, and so is every ring of an instance
// with WithGlobalPredicate or WithProcessActions (neither need be
// rotation-symmetric). Without livelock the sweep needs no orbit table,
// keeps no edges, and stops at the first illegitimate deadlock.
//
// On error the returned slice holds the ring sizes that completed, so the
// failing one is K = 2+len(checks). Construction errors carry
// NewInstance's messages; a done ctx returns ctx.Err().
func CheckRings(ctx context.Context, p *core.Protocol, maxK int, livelock bool, opts ...Option) ([]RingCheck, error) {
	return checkRings(ctx, p, maxK, livelock, false, csrEdgeBudget, opts)
}

// SmallestLivelockK returns the smallest ring size K in 2..maxK with a
// livelock outside I(K), or 0 when no ring size up to maxK has one. It is
// CheckRings with livelock set, stopping at the first ring size that
// livelocks, and returns CheckRings' errors.
func SmallestLivelockK(ctx context.Context, p *core.Protocol, maxK int, opts ...Option) (int, error) {
	checks, err := checkRings(ctx, p, maxK, true, true, csrEdgeBudget, opts)
	if err != nil || len(checks) == 0 || !checks[len(checks)-1].Livelock {
		return 0, err
	}
	return checks[len(checks)-1].K, nil
}

// checkRings is CheckRings with the CSR edge budget as a parameter, so
// tests can push ring sizes onto the per-K fallback, and with untilLivelock
// ending the sweep after the first ring size that livelocks.
func checkRings(ctx context.Context, p *core.Protocol, maxK int, livelock, untilLivelock bool, edgeBudget uint64, opts []Option) ([]RingCheck, error) {
	cfg := configure(p, opts)
	perInstance := cfg.globalI != nil || len(cfg.distinguished) > 0
	var (
		checks []RingCheck
		tbl    *localTable
		legit  bitset
		ws     *ringWorkspace
	)
	for k := 2; k <= maxK; k++ {
		var (
			rc  RingCheck
			err error
		)
		if perInstance {
			rc, err = instanceCheck(ctx, p, k, livelock, opts)
		} else {
			ring := configure(p, opts)
			if err := ring.size(k); err != nil {
				return checks, err
			}
			if tbl == nil {
				// Validation precedes the table build (p.Compile panics on an
				// out-of-domain write) and follows the first size check, so
				// the smallest failing K reports the error NewInstance would.
				if err := ring.validateActions(); err != nil {
					return checks, err
				}
				tbl = buildLocalTable(p)
				legit = legitBits(p)
				if livelock {
					ws = newRingWorkspace(cfg, tbl, maxK, edgeBudget, untilLivelock)
				}
			}
			ring.legitCode = legit
			rc, err = ring.checkOrbits(ctx, tbl, ws, livelock, opts)
		}
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			return checks, err
		}
		checks = append(checks, rc)
		if untilLivelock && rc.Livelock {
			break
		}
	}
	return checks, nil
}

// ringCheck returns the check of this instance's ring size with no
// answers filled in yet.
func (in *Instance) ringCheck() RingCheck {
	return RingCheck{K: in.k, States: in.n, TableBytes: EstimateTableBytes(in.n)}
}

// checkOrbits answers the questions for this instance's ring size on the
// quotient by rotation, or, for the livelock question, through a per-K
// Instance when the ring is past the workspace's edge budget or the orbit
// table's uint32 codes.
func (in *Instance) checkOrbits(ctx context.Context, tbl *localTable, ws *ringWorkspace, livelock bool, opts []Option) (RingCheck, error) {
	switch {
	case !livelock:
		return in.checkDeadlock(ctx, tbl), nil
	case in.k > ws.maxK:
		return instanceCheck(ctx, in.p, in.k, true, opts)
	}
	ws.fit(in.d, in.k)
	ot, err := orbitsFor(ctx, in.d, in.k, in.n)
	if err != nil {
		return in.ringCheck(), err
	}
	return in.checkBoth(ctx, tbl, ot, ws)
}

// instanceCheck answers the questions for ring size k with the witness
// methods of a constructed instance.
func instanceCheck(ctx context.Context, p *core.Protocol, k int, livelock bool, opts []Option) (RingCheck, error) {
	in, err := NewInstanceCtx(ctx, p, k, opts...)
	if err != nil {
		return RingCheck{}, err
	}
	rc := in.ringCheck()
	rc.Deadlock = len(in.IllegitimateDeadlocks()) > 0
	if livelock {
		cycle, err := in.FindLivelockCtx(ctx)
		if err != nil {
			return rc, err
		}
		rc.Livelock = cycle != nil
	}
	return rc, nil
}

// checkDeadlock answers the deadlock question alone: a sweep over the
// orbit representatives that needs no orbit table and keeps no edges,
// tests I only on deadlocked ones and ends at the first illegitimate one,
// in every chunk once any chunk has found one. Deadlock and I are
// rotation-invariant, so a representative answers for its whole orbit.
// Chunks are ranges of state codes, each visiting the representatives
// inside it; representatives crowd the low codes, so the low chunks hold
// more of them.
func (in *Instance) checkDeadlock(ctx context.Context, tbl *localTable) RingCheck {
	defer trace.StartRegion(ctx, "explicit.ringSweep").End()
	var found atomic.Bool
	in.forEachChunk(func(_ int, lo, hi uint64) {
		c := in.newRepCursor()
		for ok, i := c.seek(lo), 0; ok && c.od.id < hi; ok, i = c.next(), i+1 {
			if i&cancelCheckMask == 0 && (ctx.Err() != nil || found.Load()) {
				return
			}
			if tbl.deadlocked(c.od.codes) && !in.inIAt(c.od) {
				found.Store(true)
				return
			}
		}
	})
	rc := in.ringCheck()
	rc.Deadlock = found.Load()
	return rc
}

// checkBoth answers both questions: the edge sweep builds the quotient of
// the not-I transition graph as a CSR over orbit numbers in the workspace,
// then the peel decides acyclicity. Each chunk of a sharded sweep records
// chunk-local offsets and its own edge run; the runs are stitched in chunk
// order.
func (in *Instance) checkBoth(ctx context.Context, tbl *localTable, ot *orbitTable, ws *ringWorkspace) (RingCheck, error) {
	rc := in.ringCheck()
	m := uint64(len(ot.reps))
	off := ws.off[:m+1]
	off[0] = 0
	var dead atomic.Bool
	sweep := trace.StartRegion(ctx, "explicit.ringSweep")
	in.forEachRange(m, func(w int, lo, hi uint64) {
		var d bool
		ws.parts[w], d = in.edgeRange(ctx, tbl, ot, lo, hi, off[lo+1:hi+1], ws.parts[w][:0])
		if d {
			dead.Store(true)
		}
	})
	sweep.End()
	if err := ctx.Err(); err != nil {
		return rc, err
	}
	rc.Deadlock = dead.Load()
	edges := ws.parts[0]
	if in.workers > 1 {
		edges = ws.edges[:0]
		for w := 0; w < in.workers; w++ {
			lo, hi := chunkFor(m, in.workers, w)
			if lo >= hi {
				continue
			}
			base := uint32(len(edges))
			for i := lo + 1; i <= hi; i++ {
				off[i] += base
			}
			edges = append(edges, ws.parts[w]...)
		}
	}
	cyclic, err := ws.cyclic(ctx, m, off, edges)
	rc.Livelock = cyclic
	return rc, err
}

// edgeRange visits the representatives of orbits [lo, hi) in ascending
// order and appends, for every not-I one, the orbits of its successors to
// edges; rowEnd[i] receives the edge count after orbit lo+i. It reports
// whether some not-I representative had no successor: an illegitimate
// deadlock, since an enabled process emits at least one move, so "no
// successor" is exactly deadlockAt.
func (in *Instance) edgeRange(ctx context.Context, tbl *localTable, ot *orbitTable, lo, hi uint64, rowEnd, edges []uint32) ([]uint32, bool) {
	deadlock := false
	c := in.newRepCursor()
	c.seek(uint64(ot.reps[lo]))
	for i := lo; i < hi; i++ {
		if i&cancelCheckMask == 0 && ctx.Err() != nil {
			return edges, deadlock
		}
		if i > lo {
			c.next()
		}
		if od := c.od; !in.inIAt(od) {
			n := len(edges)
			edges = emitFast(in, tbl, od.id, od.vals, od.codes, edges)
			for j := n; j < len(edges); j++ {
				edges[j] = ot.orbit[edges[j]]
			}
			deadlock = deadlock || len(edges) == n
		}
		rowEnd[i-lo] = uint32(len(edges))
	}
	return edges, deadlock
}

// ringWorkspace is the quotient CSR and peel storage one CheckRings call
// reuses for every ring size up to maxK, the largest whose orbit edges fit
// the budget. It is sized by the orbit count of a ring size, not by its
// state count.
type ringWorkspace struct {
	maxK int
	// stepwise grows the buffers one ring size at a time, for a search
	// that may stop at the first livelock; CheckRings checks every ring
	// size up to maxK, so it sizes them once for the largest.
	stepwise bool
	bounds   []uint64   // bounds[k]: the largest orbit edge bound of ring sizes 2..k
	off      []uint32   // row offsets, one more than the orbits
	edges    []uint32   // the stitched rows of a sharded sweep
	parts    [][]uint32 // one edge run per sweep chunk
	indeg    []int32
	queue    []uint32
}

// newRingWorkspace finds the largest ring size in [2, maxK] that passes
// the state guards and whose orbit edge bound fits the budget; larger
// ring sizes fall back to per-K instances. Below the window width the
// bound is cruder, so a smaller ring can have the larger one, and the
// bounds are kept as running maxima. fit allocates the buffers.
func newRingWorkspace(cfg *Instance, tbl *localTable, maxK int, budget uint64, stepwise bool) *ringWorkspace {
	ws := &ringWorkspace{maxK: 1, stepwise: stepwise, bounds: make([]uint64, 2, maxK+1), parts: make([][]uint32, cfg.workers)}
	for k := 2; k <= maxK; k++ {
		nk, ok := EstimateStates(cfg.d, k)
		if !ok || nk > cfg.maxStates || nk > math.MaxUint32 {
			break
		}
		b := tbl.orbitEdgeBound(nk, k, cfg.d, cfg.p.W())
		if b > budget {
			break
		}
		ws.maxK = k
		ws.bounds = append(ws.bounds, max(ws.bounds[k-1], b))
	}
	return ws
}

// fit sizes the buffers for ring size k <= maxK of domain d, or for maxK
// unless stepwise, keeping them when they are already large enough.
func (ws *ringWorkspace) fit(d, k int) {
	if !ws.stepwise {
		k = ws.maxK
	}
	m := necklaces(d, k)
	if uint64(len(ws.indeg)) >= m {
		return
	}
	ws.off = make([]uint32, m+1)
	ws.indeg = make([]int32, m)
	ws.queue = make([]uint32, m)
	if len(ws.parts) > 1 {
		ws.edges = make([]uint32, 0, ws.bounds[k])
	} else {
		ws.parts[0] = make([]uint32, 0, ws.bounds[k])
	}
}

// edgeBound bounds the successor edges of all n states of a ring of k
// processes. When k >= w the window code of each process runs uniformly
// over every local code as the state runs over the ring, so the bound is
// the exact total; smaller rings repeat positions inside a window and get
// the cruder bound of d moves per process.
func (t *localTable) edgeBound(n uint64, k, d, w int) uint64 {
	if k < w {
		return n * uint64(k) * uint64(d)
	}
	codes := uint64(len(t.off) - 1)
	return n / codes * uint64(k) * uint64(len(t.moves))
}

// orbitEdgeBound bounds the successor edges of the orbit representatives
// of a ring of k processes. A state's rotations have as many successors as
// it has, so the representative of an orbit of k states emits a k-th of
// its orbit's edges, and the representatives of aperiodic orbits emit at
// most edgeBound/k in all; each of the few periodic orbits adds at most d
// moves per process.
func (t *localTable) orbitEdgeBound(n uint64, k, d, w int) uint64 {
	all := t.edgeBound(n, k, d, w)
	periodic := necklaces(d, k) - lyndon(d, k)
	return min(all, all/uint64(k)+periodic*uint64(k)*uint64(d))
}

// cyclic reports whether the graph on n vertices with CSR rows off/edges
// has a cycle, by Kahn's peel: remove vertices of in-degree zero until
// none is left; a cycle exists exactly when some vertex is never removed.
// The outcome depends on neither the order of the edges nor the order of
// the removals.
func (ws *ringWorkspace) cyclic(ctx context.Context, n uint64, off, edges []uint32) (bool, error) {
	defer trace.StartRegion(ctx, "explicit.ringPeel").End()
	indeg := ws.indeg[:n]
	clear(indeg)
	for _, v := range edges {
		indeg[v]++
	}
	queue := ws.queue[:0]
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, uint32(v))
		}
	}
	for head := 0; head < len(queue); head++ {
		if head&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		u := queue[head]
		for _, v := range edges[off[u]:off[u+1]] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return uint64(len(queue)) < n, nil
}
