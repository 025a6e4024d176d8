package explicit

import (
	"context"
	"math"
	"runtime/trace"
	"sort"
	"sync"
	"sync/atomic"
)

// The frontier-parallel engine. The global side of the paper's Table 1 is
// domain^K work by construction — local reasoning (Theorems 4.2 and 5.14)
// avoids the exponent, and this file only shrinks the constant so the
// oracle/baseline comparison runs as fast as the hardware allows:
//
//   - state scans (deadlock search, Deadlocks, CheckClosure) are split into
//     one contiguous code range per worker, with a CAS-min merge so the
//     reported witness is exactly the sequential one (the smallest id);
//   - the backward BFS of CheckWeakConvergence/RecoveryRadius runs
//     level-synchronously with a lock-free CAS bitset claiming states, so
//     the computed distances are the (unique) BFS distances regardless of
//     worker interleaving;
//   - livelock detection (the cycle search of Proposition 2.1) builds the
//     not-I-restricted transition graph in parallel as a CSR adjacency and
//     then runs the same sequential Tarjan over it, so the witness cycle is
//     bit-identical to FindLivelock's. Tarjan itself stays serial — Amdahl
//     caps the speedup, but successor generation (a window decode plus a
//     table lookup per process per state) dominates the sequential profile.
//
// Every parallel path returns results identical to the sequential reference
// (kept under the same exported names with workers == 1) and is exercised
// against it by TestParallelMatchesSequential under -race.

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

// firstIllegitimateDeadlockParallel scans all states for the smallest-coded
// global deadlock outside I. Workers CAS-min their first hit and bail out
// early once a lower-ranged worker has already won, so the result equals
// the sequential ascending scan's first hit.
func (in *Instance) firstIllegitimateDeadlockParallel(ctx context.Context) (uint64, bool) {
	defer trace.StartRegion(ctx, "explicit.deadlockScan").End()
	var best atomic.Uint64
	best.Store(math.MaxUint64)
	in.forEachChunk(func(_ int, lo, hi uint64) {
		if lo >= hi {
			return
		}
		sc := in.newScratch()
		sc.od.reset(lo)
		for id := lo; id < hi; id++ {
			if id%4096 == 0 && (ctx.Err() != nil || best.Load() < lo) {
				return // canceled, or a lower chunk already found one
			}
			if !in.inI.Get(id) && in.deadlockAt(sc) {
				for {
					cur := best.Load()
					if id >= cur || best.CompareAndSwap(cur, id) {
						break
					}
				}
				return // the first hit in an ascending chunk is the chunk's min
			}
			if id+1 < hi {
				sc.od.step()
			}
		}
	})
	id := best.Load()
	return id, id != math.MaxUint64
}

// collectStatesParallel returns, in increasing state-code order, every
// state satisfying pred. Per-chunk slices are concatenated in chunk order,
// so the result is identical to a sequential ascending scan. The scratch
// handed to pred has its odometer synced to id, so predicates can use the
// incremental deadlockAt/successorsAt helpers directly.
func (in *Instance) collectStatesParallel(pred func(id uint64, sc *scratch) bool) []uint64 {
	parts := make([][]uint64, in.workers)
	var wg sync.WaitGroup
	for w := 0; w < in.workers; w++ {
		lo, hi := chunkFor(in.n, in.workers, w)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w int, lo, hi uint64) {
			defer wg.Done()
			sc := in.newScratch()
			sc.od.reset(lo)
			var out []uint64
			for id := lo; id < hi; id++ {
				if pred(id, sc) {
					out = append(out, id)
				}
				if id+1 < hi {
					sc.od.step()
				}
			}
			parts[w] = out
		}(w, lo, hi)
	}
	wg.Wait()
	var out []uint64
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// parallelEdgeBudget bounds the CSR adjacency the parallel livelock check
// materializes (edges are bounded by states x ring size). Past the budget
// the check falls back to the on-the-fly sequential Tarjan — correctness is
// unaffected, only the speedup of the livelock phase.
const parallelEdgeBudget = 1 << 27

// notIGraph is the Delta_p | not-I transition graph in compressed sparse
// row form: states in I have an empty row, successors are the sorted
// deduplicated not-I successors — exactly what FindLivelock's restricted()
// generates on the fly.
type notIGraph struct {
	off   []uint64
	edges []uint32
}

// succ returns the not-I successors of id as a fresh slice (the Tarjan
// frames retain it), matching the sequential restricted() contract.
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

// buildNotIGraphParallel materializes Delta_p | not-I with one worker per
// contiguous state range; per-chunk edge lists are stitched in chunk order
// so the layout is independent of scheduling. Returns false when the
// instance is too large for the CSR budget (caller falls back to the
// sequential path).
func (in *Instance) buildNotIGraphParallel(ctx context.Context) (*notIGraph, bool) {
	if in.n > math.MaxUint32 || in.n*uint64(in.k) > parallelEdgeBudget {
		return nil, false
	}
	defer trace.StartRegion(ctx, "explicit.csrBuild").End()
	type chunk struct {
		lo, hi uint64
		deg    []uint32
		edges  []uint32
	}
	chunks := make([]chunk, in.workers)
	var wg sync.WaitGroup
	for w := 0; w < in.workers; w++ {
		lo, hi := chunkFor(in.n, in.workers, w)
		chunks[w] = chunk{lo: lo, hi: hi}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(c *chunk) {
			defer wg.Done()
			sc := in.newScratch()
			sc.od.reset(c.lo)
			c.deg = make([]uint32, c.hi-c.lo)
			// The chunk is one ID-sorted run: the odometer keeps the window
			// codes current and the ascending ids keep the inI words and the
			// flat table hot, so the CSR build streams instead of chasing.
			for id := c.lo; id < c.hi; id++ {
				if id&cancelCheckMask == 0 && ctx.Err() != nil {
					return // partial chunk; the caller discards via ctx.Err()
				}
				if !in.inI.Get(id) {
					n := 0
					for _, s := range in.successorsAt(sc) {
						if !in.inI.Get(s) {
							c.edges = append(c.edges, uint32(s))
							n++
						}
					}
					c.deg[id-c.lo] = uint32(n)
				}
				if id+1 < c.hi {
					sc.od.step()
				}
			}
		}(&chunks[w])
	}
	wg.Wait()
	g := &notIGraph{off: make([]uint64, in.n+1)}
	total := 0
	for _, c := range chunks {
		total += len(c.edges)
	}
	g.edges = make([]uint32, 0, total)
	var off uint64
	for _, c := range chunks {
		for i := c.lo; i < c.hi; i++ {
			g.off[i] = off
			off += uint64(c.deg[i-c.lo])
		}
		g.edges = append(g.edges, c.edges...)
	}
	g.off[in.n] = off
	return g, true
}

// checkStrongConvergenceParallel is the workers > 1 path of
// CheckStrongConvergence; see the file comment for why each phase produces
// exactly the sequential verdict and witnesses. A done ctx aborts the
// in-flight phase (every worker polls it) and surfaces ctx.Err().
func (in *Instance) checkStrongConvergenceParallel(ctx context.Context) (ConvergenceReport, error) {
	rep := ConvergenceReport{StatesExplored: in.n}
	id, ok := in.firstIllegitimateDeadlockParallel(ctx)
	if err := ctx.Err(); err != nil {
		return ConvergenceReport{}, err
	}
	if ok {
		d := id
		rep.DeadlockWitness = &d
		return rep, nil
	}
	var (
		cycle []uint64
		err   error
	)
	if g, ok := in.buildNotIGraphParallel(ctx); ok && ctx.Err() == nil {
		cycle, err = in.findLivelock(ctx, g.succ)
	} else {
		cycle, err = in.FindLivelockCtx(ctx)
	}
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

// recoveryDistancesParallel runs the backward BFS from I level-
// synchronously: each level's frontier is split among workers, predecessors
// are claimed through the CAS bitset (exactly one worker wins a state), and
// the level barrier makes the claimed distances visible before the next
// level reads them. BFS distances are unique, so the dist array equals the
// sequential one for any worker count.
func (in *Instance) recoveryDistancesParallel() []int32 {
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
	for level := int32(0); len(frontier) > 0; level++ {
		// Batched frontier processing: each level is handled in ID-sorted
		// runs, so the predecessor probes of neighboring frontier states
		// touch neighboring bitset words and reuse the hot flat-table rows.
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		parts := make([][]uint64, in.workers)
		var wg sync.WaitGroup
		size := (len(frontier) + in.workers - 1) / in.workers
		for w := 0; w < in.workers; w++ {
			lo := w * size
			hi := lo + size
			if lo >= len(frontier) {
				break
			}
			if hi > len(frontier) {
				hi = len(frontier)
			}
			wg.Add(1)
			go func(w int, slice []uint64) {
				defer wg.Done()
				vals := make([]int, in.k)
				sc := in.newScratch()
				var next []uint64
				for _, id := range slice {
					in.DecodeInto(id, vals)
					for r := 0; r < in.k; r++ {
						orig := vals[r]
						for ov := 0; ov < in.d; ov++ {
							if ov == orig {
								continue
							}
							vals[r] = ov
							pred := in.Encode(vals)
							vals[r] = orig
							if seen.GetAtomic(pred) {
								continue
							}
							if !in.hasTransitionScratch(pred, id, sc) {
								continue
							}
							if seen.TestAndSet(pred) {
								dist[pred] = level + 1
								next = append(next, pred)
							}
						}
					}
				}
				parts[w] = next
			}(w, frontier[lo:hi])
		}
		wg.Wait()
		frontier = frontier[:0]
		for _, p := range parts {
			frontier = append(frontier, p...)
		}
	}
	return dist
}

// recoveryDistancesSeq is the sequential reference: the FIFO backward BFS
// RecoveryRadius has always used, emitting the dist array.
func (in *Instance) recoveryDistancesSeq() []int32 {
	dist := make([]int32, in.n)
	for i := range dist {
		dist[i] = -1
	}
	frontier := in.inI.AppendSetBits(nil, 0, in.n)
	for _, id := range frontier {
		dist[id] = 0
	}
	vals := make([]int, in.k)
	sc := in.newScratch()
	for head := 0; head < len(frontier); head++ {
		id := frontier[head]
		in.DecodeInto(id, vals)
		for r := 0; r < in.k; r++ {
			orig := vals[r]
			for ov := 0; ov < in.d; ov++ {
				if ov == orig {
					continue
				}
				vals[r] = ov
				pred := in.Encode(vals)
				vals[r] = orig
				if dist[pred] >= 0 {
					continue
				}
				if in.hasTransitionScratch(pred, id, sc) {
					dist[pred] = dist[id] + 1
					frontier = append(frontier, pred)
				}
			}
		}
	}
	return dist
}

// recoveryDistances returns, per state, the length of the shortest
// computation into I (0 inside I, -1 when I is unreachable) — the substrate
// shared by CheckWeakConvergence and RecoveryRadius.
func (in *Instance) recoveryDistances() []int32 {
	if in.workers > 1 {
		return in.recoveryDistancesParallel()
	}
	return in.recoveryDistancesSeq()
}

// checkClosureParallel scans the states of I for the smallest-coded closure
// violation, mirroring CheckClosure's ascending scan with a CAS-min merge
// and early bail-out.
func (in *Instance) checkClosureParallel() *ClosureViolation {
	var best atomic.Uint64
	best.Store(math.MaxUint64)
	found := make([]*ClosureViolation, in.workers)
	var wg sync.WaitGroup
	for w := 0; w < in.workers; w++ {
		lo, hi := chunkFor(in.n, in.workers, w)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w int, lo, hi uint64) {
			defer wg.Done()
			sc := in.newScratch()
			sc.od.reset(lo)
			for id := lo; id < hi; id++ {
				if id%4096 == 0 && best.Load() < lo {
					return
				}
				// Two-phase like the sequential scan: the odometer sweep
				// detects an escape from I, and only a hit pays the
				// allocating detailed walk that names the witness.
				if in.inI.Get(id) && in.closureEscapeAt(sc) {
					found[w] = in.closureWitness(id)
					for {
						cur := best.Load()
						if id >= cur || best.CompareAndSwap(cur, id) {
							break
						}
					}
					return
				}
				if id+1 < hi {
					sc.od.step()
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	id := best.Load()
	if id == math.MaxUint64 {
		return nil
	}
	for _, v := range found {
		if v != nil && v.From == id {
			return v
		}
	}
	return nil
}
