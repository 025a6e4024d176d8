package synthesis

import (
	"context"
	"fmt"
	"runtime/trace"
	"sync"
	"sync/atomic"

	"paramring/internal/core"
	"paramring/internal/ltg"
	"paramring/internal/rcg"
)

// SearchStats reports how the search engine reached its result. All fields
// are diagnostics: under parallel execution workers race ahead of the
// eventual winner, so Evaluated/Pruned* counts may vary from run to run even
// though Accepted, Rejections, ResolveSets and Steps never do.
type SearchStats struct {
	// Workers is the worker count the search ran with.
	Workers int
	// Candidates is the total number of candidate assignments across all
	// feasible Resolve sets (the flat enumeration's workload).
	Candidates int
	// Evaluated counts full per-assignment evaluations (p_ss built and both
	// theorems checked).
	Evaluated int
	// PrunedSubtrees counts branch-and-bound cuts: partial assignments whose
	// prefix already carried a contiguous trail.
	PrunedSubtrees int
	// PrunedAssignments counts assignments rejected through those cuts
	// without being evaluated individually.
	PrunedAssignments int
	// DeadlockRejected counts assignments rejected wholesale because their
	// Resolve set fails the Theorem 4.2 re-check (decided once per set).
	DeadlockRejected int
}

// engine drives Steps 3-5 of the methodology for every Resolve set of one
// Synthesize run. It owns the pieces shared across Resolve sets: the base
// protocol's LTG (the s-arc skeleton candidate t-arcs are overlaid on) and
// the search counters.
type engine struct {
	base *core.Protocol
	sys  *core.System
	r    *rcg.RCG
	l    *ltg.LTG
	opts Options

	evaluated         atomic.Int64
	prunedSubtrees    atomic.Int64
	prunedAssignments atomic.Int64
	candidates        int
	deadlockRejected  int

	// rootWitness caches the Theorem 5.14 search over the base protocol's own
	// t-arcs (the empty-assignment prefix, shared by every Resolve set).
	rootChecked bool
	rootWitness *ltg.TrailWitness
}

// span is the outcome of a contiguous range of assignment indices within one
// block. Exactly one of cand, rej, reason, err describes it: cand and rej are
// single-assignment outcomes from a full evaluation; reason rejects the whole
// range via a branch-and-bound cut; err aborts the run.
type span struct {
	lo, hi int
	cand   *Candidate
	rej    *Rejection
	reason string
	err    error
}

type blockResult struct{ spans []span }

// rsSearch is the search state for one Resolve set's assignment tree.
type rsSearch struct {
	eng      *engine
	resolve  []core.LocalState
	perState [][]core.LocalTransition
	// stride[i] is the number of assignments per subtree in which the choices
	// for states i..m-1 are fixed: the product of len(perState[j]) for j < i.
	// Assignment indices follow the flat enumeration's mixed-radix encoding
	// (state 0 is the fastest-varying digit), so every such subtree covers a
	// contiguous index range.
	stride []int
	total  int
	// exact is true when base t-arcs + one candidate per resolved state fit
	// the exact subset search; only then can prefixes be checked and pruned.
	exact bool
	// bestAccept is the smallest accepted assignment index seen so far; with
	// Options.All unset, blocks past it are abandoned (deterministic
	// first-accept: the winner is the smallest index, as in the flat loop).
	bestAccept atomic.Int64
}

// runResolveSet searches one Resolve set's assignment space and returns its
// outcome spans in ascending assignment-index order. The caller (Synthesize)
// expands them into rejections, log lines and accepted candidates; everything
// order-dependent happens there, sequentially, so any worker count yields the
// same Result.
func (e *engine) runResolveSet(resolve []core.LocalState, perState [][]core.LocalTransition, total int) ([]span, error) {
	// Synthesize has no context plumbing (the search is deterministic and
	// in-process); Background still lets `go tool trace` attribute the
	// frontier's wall-clock to this region when a capture is running.
	defer trace.StartRegion(context.Background(), "synthesis.resolveSet").End()
	e.candidates += total
	m := len(perState)
	s := &rsSearch{eng: e, resolve: resolve, perState: perState, total: total}
	s.stride = make([]int, m)
	str := 1
	for i := 0; i < m; i++ {
		s.stride[i] = str
		str *= len(perState[i])
	}
	s.exact = !e.opts.Flat && len(e.sys.Trans)+m <= e.opts.Check.MaxTArcs

	if !e.opts.Flat {
		// Theorem 4.2 is uniform across the set's assignments: every
		// candidate resolves exactly the Resolve states, so the revised
		// protocol's deadlock set — and hence the verdict — is decided here,
		// once, on the base RCG.
		dlRep, err := e.r.CheckDeadlockFreedomWithout(resolve, 0)
		if err != nil {
			return nil, fmt.Errorf("synthesis: deadlock re-check: %w", err)
		}
		if !dlRep.Free {
			e.deadlockRejected += total
			return []span{{lo: 0, hi: total,
				reason: "revised protocol still has illegitimate deadlock cycles"}}, nil
		}
		if s.exact {
			// The base protocol's own t-arcs are a prefix of every candidate
			// overlay; a trail among them dooms every assignment.
			if !e.rootChecked {
				e.rootChecked = true
				e.rootWitness, _ = e.l.FindTrailSubset(e.sys.Trans, -1)
			}
			if e.rootWitness != nil {
				e.prunedSubtrees.Add(1)
				e.prunedAssignments.Add(int64(total))
				return []span{{lo: 0, hi: total, reason: ltg.TrailReason(e.sys, e.rootWitness)}}, nil
			}
		}
	}

	workers := min(e.opts.Workers, total)
	if workers < 1 {
		workers = 1
	}
	blockSize := max(1, total/(workers*16))
	numBlocks := (total + blockSize - 1) / blockSize
	results := make([]blockResult, numBlocks)
	s.bestAccept.Store(int64(total))

	runBlockIdx := func(b int) {
		lo := b * blockSize
		hi := min(lo+blockSize, total)
		if !e.opts.All && s.bestAccept.Load() < int64(lo) {
			return // a smaller accepted index already decides the run
		}
		s.runBlock(lo, hi, &results[b])
	}
	if workers == 1 {
		for b := 0; b < numBlocks; b++ {
			runBlockIdx(b)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					b := int(next.Add(1)) - 1
					if b >= numBlocks {
						return
					}
					runBlockIdx(b)
				}
			}()
		}
		wg.Wait()
	}

	var spans []span
	for b := range results {
		spans = append(spans, results[b].spans...)
	}
	return spans, nil
}

// runBlock searches the assignment indices [lo, hi). In exact mode it walks
// the assignment tree as an odometer with branch-and-bound prefix checks; a
// prefix carrying a contiguous trail rejects its whole contiguous index range
// at once (monotonicity: adding t-arcs only adds trails). Otherwise each
// assignment is evaluated individually. A node check depends only on the
// prefix it examines — never on block boundaries — so rejection reasons are
// identical however the index space is partitioned.
func (s *rsSearch) runBlock(lo, hi int, out *blockResult) {
	e := s.eng
	if !s.exact {
		for idx := lo; idx < hi; idx++ {
			if !e.opts.All && s.bestAccept.Load() < int64(lo) {
				return
			}
			if done := s.leaf(idx, out); done {
				return
			}
		}
		return
	}

	m := len(s.perState)
	nb := len(e.sys.Trans)
	overlay := append(make([]core.LocalTransition, 0, nb+m), e.sys.Trans...)
	curDigits := make([]int, m)
	newDigits := make([]int, m)
	validDepth := m // depths >= validDepth have their arcs pushed and cleared
	first := true
	idx := lo
	for idx < hi {
		if !e.opts.All && s.bestAccept.Load() < int64(lo) {
			return
		}
		for i := 0; i < m; i++ {
			newDigits[i] = (idx / s.stride[i]) % len(s.perState[i])
		}
		// Highest tree level whose choice changed since the previous
		// assignment; everything above it keeps its cleared prefix checks.
		pushFrom := m - 1
		if !first {
			for d := m - 1; d >= 0; d-- {
				if curDigits[d] != newDigits[d] {
					pushFrom = d
					break
				}
			}
		}
		first = false
		pushFrom = max(pushFrom, validDepth-1)
		overlay = overlay[:nb+(m-1-pushFrom)]
		copy(curDigits, newDigits)

		pruned := false
		for d := pushFrom; d >= 0; d-- {
			overlay = append(overlay, s.perState[d][newDigits[d]])
			// Only subsets containing the newest arc are open: subsets of the
			// older prefix were cleared at shallower levels (or at the root).
			w, _ := e.l.FindTrailSubset(overlay, len(overlay)-1)
			if w == nil {
				continue
			}
			subtree := s.stride[d]
			end := (idx/subtree)*subtree + subtree
			spanHi := min(end, hi)
			e.prunedSubtrees.Add(1)
			e.prunedAssignments.Add(int64(spanHi - idx))
			out.spans = append(out.spans, span{lo: idx, hi: spanHi, reason: ltg.TrailReason(e.sys, w)})
			overlay = overlay[:len(overlay)-1]
			validDepth = d + 1
			idx = end
			pruned = true
			break
		}
		if pruned {
			continue
		}
		// Every subset of the full overlay is clear of trails: the
		// assignment satisfies Theorem 5.14; the evaluation confirms and
		// builds the candidate.
		validDepth = 0
		if done := s.leaf(idx, out); done {
			return
		}
		idx++
	}
}

// leaf fully evaluates one assignment and records its outcome. Returns true
// when the block should stop (error, or first accept with Options.All unset).
func (s *rsSearch) leaf(idx int, out *blockResult) bool {
	e := s.eng
	chosen := assignment(s.perState, idx)
	e.evaluated.Add(1)
	cand, rej, err := evaluate(e.base, e.sys, chosen, s.resolve, e.opts)
	switch {
	case err != nil:
		out.spans = append(out.spans, span{lo: idx, hi: idx + 1, err: err})
		return true
	case rej != nil:
		out.spans = append(out.spans, span{lo: idx, hi: idx + 1, rej: rej})
		return false
	default:
		out.spans = append(out.spans, span{lo: idx, hi: idx + 1, cand: cand})
		if e.opts.All {
			return false
		}
		for {
			cur := s.bestAccept.Load()
			if int64(idx) >= cur || s.bestAccept.CompareAndSwap(cur, int64(idx)) {
				return true
			}
		}
	}
}

// stats snapshots the engine's counters.
func (e *engine) stats() SearchStats {
	return SearchStats{
		Workers:           e.opts.Workers,
		Candidates:        e.candidates,
		Evaluated:         int(e.evaluated.Load()),
		PrunedSubtrees:    int(e.prunedSubtrees.Load()),
		PrunedAssignments: int(e.prunedAssignments.Load()),
		DeadlockRejected:  e.deadlockRejected,
	}
}
