package explicit

import (
	"context"
	"math"
	"runtime/trace"
	"slices"
	"sync"
	"sync/atomic"
)

// Chunked scans. The global side of the paper's Table 1 is domain^K work
// by construction — local reasoning (Theorems 4.2 and 5.14) avoids the
// exponent, and the workers only shrink the constant. Every whole-state
// pass of an Instance has one implementation, a scan over WithWorkers
// contiguous chunks of the state codes (forEachChunk); one worker runs one
// chunk inline. The chunks merge so that the answer does not depend on
// the worker count:
//
//   - collecting scans (Deadlocks, IllegitimateDeadlocks) concatenate
//     their per-chunk results in chunk order;
//   - first-hit scans (firstState: the deadlock search of
//     CheckStrongConvergence, and CheckClosure) CAS-min the smallest hit,
//     so the witness is the smallest state code;
//   - the not-I CSR behind FindLivelock stitches per-chunk rows in chunk
//     order, and one Tarjan walks it, so the witness cycle is the same;
//   - the backward BFS of CheckWeakConvergence and RecoveryRadius runs
//     level by level with a CAS bitset claiming states, so the distances
//     are the (unique) BFS distances.
//
// TestParallelMatchesSequential and its neighbours check these answers at
// one worker against several, under -race in CI.

// chunkFor returns the half-open range of chunk w when [0, n) is split into
// workers contiguous chunks. Chunk boundaries are rounded up to multiples
// of 64 states so that every chunk owns whole words of the packed bitsets —
// concurrent chunk fills can then use plain (non-atomic) bit writes without
// ever sharing a word across workers.
func chunkFor(n uint64, workers, w int) (lo, hi uint64) {
	size := (n + uint64(workers) - 1) / uint64(workers)
	size = (size + 63) &^ 63
	lo = uint64(w) * size
	hi = lo + size
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// forEachChunk runs fn concurrently on one contiguous range of state codes
// per worker — chunk w is chunkFor(n, workers, w) — and waits for all of
// them. With a single worker it runs fn(0, 0, n) inline.
func (in *Instance) forEachChunk(fn func(w int, lo, hi uint64)) {
	in.forEachRange(in.n, fn)
}

// forEachRange is forEachChunk over [0, n) instead of the state codes.
// Empty chunks are skipped.
func (in *Instance) forEachRange(n uint64, fn func(w int, lo, hi uint64)) {
	if in.workers <= 1 || n == 0 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < in.workers; w++ {
		lo, hi := chunkFor(n, in.workers, w)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w int, lo, hi uint64) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// firstState returns the smallest state code that is a global deadlock
// outside I or, with closure set, that lies in I and has a successor
// outside I. Each chunk stops at its first hit, the chunk's smallest, and
// CAS-mins it into the answer; a chunk also stops once a lower chunk has
// won, or ctx is done. The two tests are inline rather than a predicate
// argument: an indirect call per state costs a tenth of a small ring's
// check.
func (in *Instance) firstState(ctx context.Context, closure bool) (uint64, bool) {
	var best atomic.Uint64
	best.Store(math.MaxUint64)
	in.forEachChunk(func(_ int, lo, hi uint64) {
		sc := in.newScratch()
		sc.od.reset(lo)
		for id := lo; id < hi; id++ {
			if id&cancelCheckMask == 0 && (ctx.Err() != nil || best.Load() < lo) {
				return
			}
			var hit bool
			if closure {
				hit = in.inI.Get(id) && in.closureEscapeAt(sc)
			} else {
				hit = !in.inI.Get(id) && in.deadlockAt(sc)
			}
			if hit {
				for cur := best.Load(); id < cur; cur = best.Load() {
					if best.CompareAndSwap(cur, id) {
						break
					}
				}
				return
			}
			if id+1 < hi {
				sc.od.step()
			}
		}
	})
	id := best.Load()
	return id, id != math.MaxUint64
}

// deadlocks returns the global deadlocks, or only those outside I, in
// increasing state-code order: per-chunk lists concatenated in chunk
// order.
func (in *Instance) deadlocks(illegitimateOnly bool) []uint64 {
	parts := make([][]uint64, in.workers)
	in.forEachChunk(func(w int, lo, hi uint64) {
		sc := in.newScratch()
		sc.od.reset(lo)
		var out []uint64
		for id := lo; id < hi; id++ {
			if (!illegitimateOnly || !in.inI.Get(id)) && in.deadlockAt(sc) {
				out = append(out, id)
			}
			if id+1 < hi {
				sc.od.step()
			}
		}
		parts[w] = out
	})
	return slices.Concat(parts...)
}

// csrEdgeBudget bounds the not-I CSR adjacency FindLivelock
// materializes (edges are bounded by states x ring size). Past the budget
// the Tarjan generates successors on the fly — correctness is unaffected,
// only the speed of the livelock phase.
const csrEdgeBudget = 1 << 27

// notIGraph is the Delta_p | not-I transition graph in compressed sparse
// row form: states in I have an empty row, successors are the sorted
// deduplicated not-I successors — exactly what FindLivelock's on-the-fly
// expansion generates.
type notIGraph struct {
	off   []uint64
	edges []uint32
}

// succ returns the not-I successors of id as a fresh slice (the Tarjan
// frames retain it).
func (g *notIGraph) succ(id uint64) []uint64 {
	lo, hi := g.off[id], g.off[id+1]
	if lo == hi {
		return nil
	}
	out := make([]uint64, hi-lo)
	for i := lo; i < hi; i++ {
		out[i-lo] = uint64(g.edges[i])
	}
	return out
}

// buildNotIGraph materializes Delta_p | not-I as a CSR adjacency, rows
// ascending and each row sorted. Each chunk sweeps its states with the
// odometer, writing chunk-local row ends into off and its own edge run;
// the runs are stitched in chunk order, so the layout does not depend on
// the worker count. Returns false past the edge budget or once ctx is
// done.
func (in *Instance) buildNotIGraph(ctx context.Context) (*notIGraph, bool) {
	if in.n > math.MaxUint32 || in.n*uint64(in.k) > csrEdgeBudget {
		return nil, false
	}
	defer trace.StartRegion(ctx, "explicit.csrBuild").End()
	type run struct {
		lo, hi uint64
		edges  []uint32
	}
	g := &notIGraph{off: make([]uint64, in.n+1)}
	runs := make([]run, in.workers)
	in.forEachChunk(func(w int, lo, hi uint64) {
		sc := in.newScratch()
		sc.od.reset(lo)
		var edges []uint32
		for id := lo; id < hi; id++ {
			if id&cancelCheckMask == 0 && ctx.Err() != nil {
				return // partial chunk; discarded below
			}
			if !in.inI.Get(id) {
				for _, s := range in.successorsAt(sc) {
					if !in.inI.Get(s) {
						edges = append(edges, uint32(s))
					}
				}
			}
			g.off[id+1] = uint64(len(edges))
			if id+1 < hi {
				sc.od.step()
			}
		}
		runs[w] = run{lo: lo, hi: hi, edges: edges}
	})
	if ctx.Err() != nil {
		return nil, false
	}
	if in.workers == 1 {
		g.edges = runs[0].edges
		return g, true
	}
	total := 0
	for _, r := range runs {
		total += len(r.edges)
	}
	g.edges = make([]uint32, 0, total)
	for _, r := range runs {
		base := uint64(len(g.edges))
		for i := r.lo + 1; i <= r.hi; i++ {
			g.off[i] += base
		}
		g.edges = append(g.edges, r.edges...)
	}
	return g, true
}

// RecoveryDistances returns, per state code, the length of the shortest
// computation from that state into I(K): 0 inside I, -1 when I is
// unreachable. It is the backward BFS from I that CheckWeakConvergence
// and RecoveryRadius read.
//
// The BFS runs level by level: each level's frontier, sorted, is split
// into chunks; a chunk generates the predecessor candidates of its states
// (one position changed) and claims each unclaimed real predecessor
// through the CAS bitset, so exactly one chunk wins a state. Every state
// claimed at a level gets that level's distance, and BFS distances are
// unique, so the array does not depend on the worker count.
func (in *Instance) RecoveryDistances() []int32 {
	dist := make([]int32, in.n)
	for i := range dist {
		dist[i] = -1
	}
	seen := newBitset(in.n)
	// Seed the level-0 frontier straight from the membership bits at word
	// speed — no per-id predicate scan, and the result is ascending by
	// construction.
	frontier := in.inI.AppendSetBits(nil, 0, in.n)
	for _, id := range frontier {
		seen.Set(id)
		dist[id] = 0
	}
	// Per chunk, across levels: the next frontier, a scratch for the
	// transition tests, and the frontier state's valuation, kept apart from
	// the scratch's own, which the transition tests overwrite.
	parts := make([][]uint64, in.workers)
	scs := make([]*scratch, in.workers)
	valss := make([][]int, in.workers)
	for level := int32(1); len(frontier) > 0; level++ {
		// Ascending runs keep the predecessor probes of neighbouring
		// frontier states on neighbouring bitset words and hot flat-table
		// rows.
		slices.Sort(frontier)
		in.forEachRange(uint64(len(frontier)), func(w int, lo, hi uint64) {
			if scs[w] == nil {
				scs[w], valss[w] = in.newScratch(), make([]int, in.k)
			}
			sc, vals := scs[w], valss[w]
			next := parts[w][:0]
			for _, id := range frontier[lo:hi] {
				in.DecodeInto(id, vals)
				for r := 0; r < in.k; r++ {
					base := id - uint64(vals[r])*in.po[r]
					for ov := 0; ov < in.d; ov++ {
						if ov == vals[r] {
							continue
						}
						pred := base + uint64(ov)*in.po[r]
						if seen.GetAtomic(pred) || !in.hasTransitionScratch(pred, id, sc) {
							continue
						}
						if seen.TestAndSet(pred) {
							dist[pred] = level
							next = append(next, pred)
						}
					}
				}
			}
			parts[w] = next
		})
		frontier = frontier[:0]
		for w, p := range parts {
			frontier = append(frontier, p...)
			parts[w] = p[:0]
		}
	}
	return dist
}
