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
//   - one ascending odometer sweep per K decides membership in I(K) on the
//     fly and, for each not-I state, emits its successors: a state with
//     none is an illegitimate deadlock, because an enabled process always
//     emits at least one move;
//   - the cycle question is a Kahn peel over those edges: repeatedly
//     remove states of in-degree zero, and a cycle exists exactly when
//     some state is never removed. States in I get no out-edges, so they
//     are sinks and never lie on a cycle; the peel therefore needs neither
//     the I(K) bitset, nor sorted rows, nor deduplicated edges (a repeated
//     edge is counted in once and out once).

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
// like the other scans; the peel stays sequential. A ring whose edges
// could exceed the CSR budget, and every ring of an instance with
// WithGlobalPredicate or WithProcessActions, is checked through a
// per-K Instance instead. Without livelock the sweep keeps no tables and
// stops at the first illegitimate deadlock.
//
// On error the returned slice holds the ring sizes that completed, so the
// failing one is K = 2+len(checks). Construction errors carry
// NewInstance's messages; a done ctx returns ctx.Err().
func CheckRings(ctx context.Context, p *core.Protocol, maxK int, livelock bool, opts ...Option) ([]RingCheck, error) {
	return checkRings(ctx, p, maxK, livelock, parallelEdgeBudget, opts)
}

// checkRings is CheckRings with the CSR edge budget as a parameter, so
// tests can push ring sizes onto the per-K fallback.
func checkRings(ctx context.Context, p *core.Protocol, maxK int, livelock bool, edgeBudget uint64, opts []Option) ([]RingCheck, error) {
	cfg := configure(p, opts)
	perInstance := cfg.globalI != nil || len(cfg.distinguished) > 0
	var (
		checks []RingCheck
		tbl    *localTable
		legit  bitset
		ws     *ringWorkspace
	)
	for k := 2; k <= maxK; k++ {
		if perInstance {
			in, err := NewInstanceCtx(ctx, p, k, opts...)
			if err != nil {
				return checks, err
			}
			rc, err := in.checkInstance(ctx, livelock)
			if err != nil {
				return checks, err
			}
			checks = append(checks, rc)
			continue
		}
		ring := configure(p, opts)
		if err := ring.size(k); err != nil {
			return checks, err
		}
		if tbl == nil {
			// Validation precedes the table build (p.Compile panics on an
			// out-of-domain write) and follows the first size check, so the
			// smallest failing K reports the error NewInstance would.
			if err := ring.validateActions(); err != nil {
				return checks, err
			}
			tbl = buildLocalTable(p)
			legit = legitBits(p)
			if livelock {
				ws = newRingWorkspace(cfg, tbl, maxK, edgeBudget)
			}
		}
		ring.legitCode = legit
		var (
			rc  RingCheck
			err error
		)
		switch {
		case !livelock:
			rc = ring.checkDeadlock(ctx, tbl)
		case k <= ws.maxK:
			rc, err = ring.checkBoth(ctx, tbl, ws)
		default:
			var in *Instance
			if in, err = NewInstanceCtx(ctx, p, k, opts...); err == nil {
				rc, err = in.checkInstance(ctx, livelock)
			}
		}
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			return checks, err
		}
		checks = append(checks, rc)
	}
	return checks, nil
}

// ringCheck returns the check of this instance's ring size with no
// answers filled in yet.
func (in *Instance) ringCheck() RingCheck {
	return RingCheck{K: in.k, States: in.n, TableBytes: EstimateTableBytes(in.n)}
}

// checkInstance answers the questions with the witness methods of a
// constructed instance.
func (in *Instance) checkInstance(ctx context.Context, livelock bool) (RingCheck, error) {
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

// checkDeadlock answers the deadlock question alone: a table-free sweep
// that tests I only on deadlocked states and ends at the first
// illegitimate one, in every chunk once any chunk has found one.
func (in *Instance) checkDeadlock(ctx context.Context, tbl *localTable) RingCheck {
	defer trace.StartRegion(ctx, "explicit.ringSweep").End()
	var found atomic.Bool
	in.forEachChunk(func(_ int, lo, hi uint64) {
		if lo >= hi {
			return
		}
		od := in.newOdometer()
		od.reset(lo)
		for id := lo; id < hi; id++ {
			if id&cancelCheckMask == 0 && (ctx.Err() != nil || found.Load()) {
				return
			}
			if tbl.deadlocked(od.codes) && !in.inIAt(od) {
				found.Store(true)
				return
			}
			if id+1 < hi {
				od.step()
			}
		}
	})
	rc := in.ringCheck()
	rc.Deadlock = found.Load()
	return rc
}

// checkBoth answers both questions: the edge sweep builds the not-I
// transition graph as a CSR in the workspace, then the peel decides
// acyclicity. Each chunk of a sharded sweep records chunk-local offsets
// and its own edge run; the runs are stitched in chunk order.
func (in *Instance) checkBoth(ctx context.Context, tbl *localTable, ws *ringWorkspace) (RingCheck, error) {
	rc := in.ringCheck()
	off := ws.off[:in.n+1]
	off[0] = 0
	var dead atomic.Bool
	sweep := trace.StartRegion(ctx, "explicit.ringSweep")
	in.forEachChunk(func(w int, lo, hi uint64) {
		if lo >= hi {
			return
		}
		var d bool
		ws.parts[w], d = in.edgeRange(ctx, tbl, lo, hi, off[lo+1:hi+1], ws.parts[w][:0])
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
			lo, hi := chunkFor(in.n, in.workers, w)
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
	cyclic, err := ws.cyclic(ctx, in.n, off, edges)
	rc.Livelock = cyclic
	return rc, err
}

// edgeRange visits the states [lo, hi) in ascending order with one
// odometer and appends the successors of every not-I state to edges;
// rowEnd[i] receives the edge count after state lo+i. It reports whether
// some not-I state had no successor: an illegitimate deadlock, since an
// enabled process emits at least one move, so "no successor" is exactly
// deadlockAt.
func (in *Instance) edgeRange(ctx context.Context, tbl *localTable, lo, hi uint64, rowEnd, edges []uint32) ([]uint32, bool) {
	deadlock := false
	od := in.newOdometer()
	od.reset(lo)
	for id := lo; id < hi; id++ {
		if id&cancelCheckMask == 0 && ctx.Err() != nil {
			return edges, deadlock
		}
		if !in.inIAt(od) {
			n := len(edges)
			edges = emitFast(in, tbl, id, od.vals, od.codes, edges)
			deadlock = deadlock || len(edges) == n
		}
		rowEnd[id-lo] = uint32(len(edges))
		if id+1 < hi {
			od.step()
		}
	}
	return edges, deadlock
}

// ringWorkspace is the CSR and peel storage one CheckRings call reuses for
// every ring size up to maxK, the largest whose edges fit the budget.
type ringWorkspace struct {
	maxK  int
	off   []uint32   // row offsets, one more than the states
	edges []uint32   // the stitched rows of a sharded sweep
	parts [][]uint32 // one edge run per sweep chunk
	indeg []int32
	queue []uint32
}

// newRingWorkspace sizes the workspace for the largest ring size in
// [2, maxK] that passes the state guards and whose edge bound fits the
// budget; larger ring sizes fall back to per-K instances.
func newRingWorkspace(cfg *Instance, tbl *localTable, maxK int, budget uint64) *ringWorkspace {
	ws := &ringWorkspace{maxK: 1, parts: make([][]uint32, cfg.workers)}
	var n, bound uint64
	for k := 2; k <= maxK; k++ {
		nk, ok := EstimateStates(cfg.d, k)
		if !ok || nk > cfg.maxStates || nk > math.MaxUint32 {
			break
		}
		b := tbl.edgeBound(nk, k, cfg.d, cfg.p.W())
		if b > budget {
			break
		}
		ws.maxK, n, bound = k, nk, b
	}
	if ws.maxK < 2 {
		return ws
	}
	ws.off = make([]uint32, n+1)
	ws.indeg = make([]int32, n)
	ws.queue = make([]uint32, n)
	if cfg.workers > 1 {
		ws.edges = make([]uint32, 0, bound)
	} else {
		ws.parts[0] = make([]uint32, 0, bound)
	}
	return ws
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

// cyclic reports whether the graph on n states with CSR rows off/edges has
// a cycle, by Kahn's peel: remove states of in-degree zero until none is
// left; a cycle exists exactly when some state is never removed. The
// outcome depends on neither the order of the edges nor the order of the
// removals.
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
