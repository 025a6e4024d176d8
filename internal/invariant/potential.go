package invariant

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/big"

	"paramring/internal/core"
)

// lpStats reports the LP's size and work for the lane report.
type lpStats struct {
	constraints int
	pivots      int
}

// termination tries to certify that every computation of every ring size
// K >= w is finite, by finding a local potential phi whose global sum
// strictly decreases on every step. Returns the certificate (nil unless the
// verdict is Holds), the verdict, explanatory notes for Unknown, and LP
// statistics.
func (a *analysis) termination(ctx context.Context) (*TerminationCertificate, Verdict, []string, lpStats, error) {
	var stats lpStats
	if len(a.sys.Trans) == 0 {
		return &TerminationCertificate{}, Holds, nil, stats, nil
	}
	rec := recurrentArcs(a.sys)
	if len(rec) == 0 {
		// Every transition's write edge eventually leaves the write graph's
		// cyclic part: only finitely many steps can ever fire.
		return &TerminationCertificate{}, Holds, nil, stats, nil
	}
	for _, t := range rec {
		if t.Src == t.Dst {
			return nil, Unknown, []string{
				"termination: a recurrent local transition is a self-loop (stuttering); no decreasing potential exists",
			}, stats, nil
		}
	}

	rows, vars, states, err := a.potentialRows(ctx, rec)
	if err != nil {
		return nil, Unknown, nil, stats, err
	}
	stats.constraints = len(rows)
	if len(rows) > a.opts.MaxConstraints {
		return nil, Unknown, []string{fmt.Sprintf(
			"termination: %d LP constraints exceed the lane limit %d", len(rows), a.opts.MaxConstraints,
		)}, stats, nil
	}
	if cols := vars + len(rows); len(rows)*cols > maxTableauCells {
		return nil, Unknown, []string{fmt.Sprintf(
			"termination: %d×%d LP tableau exceeds the lane limit of %d cells", len(rows), cols, maxTableauCells,
		)}, stats, nil
	}
	sol, feasible, pivots, err := solveStrict(ctx, rows, vars, a.opts.MaxPivots)
	stats.pivots = pivots
	switch err {
	case nil:
	case errPivotLimit:
		return nil, Unknown, []string{"termination: simplex pivot limit exceeded"}, stats, nil
	case errBitLimit:
		return nil, Unknown, []string{fmt.Sprintf(
			"termination: simplex tableau entries exceed %d bits", maxCellBits,
		)}, stats, nil
	default:
		return nil, Unknown, nil, stats, err
	}
	if !feasible {
		return nil, Unknown, []string{
			"termination: no linear local potential decreases on every recurrent transition in every context",
		}, stats, nil
	}

	weights := scaleWeights(sol, states, a.n)
	// Self-check before emitting: with exact arithmetic this cannot fail,
	// but a certificate must never leave the analyzer unverified.
	if err := a.verifyWeights(rec, weights); err != nil {
		return nil, Unknown, nil, stats, fmt.Errorf("invariant: potential self-check failed: %w", err)
	}
	cert := &TerminationCertificate{RecurrentTArcs: len(rec), Weights: make([]string, a.n)}
	for i, w := range weights {
		cert.Weights[i] = w.String()
	}
	return cert, Holds, nil, stats, nil
}

// recurrentArcs reduces the local transitions to the subset that could fire
// infinitely often, by transition-support pruning iterated to a fixpoint: a
// transition fires infinitely often only if its write edge
// own(Src) -> own(Dst) lies on a cycle of write edges of transitions that
// themselves fire infinitely often, so any transition whose write edge
// crosses between strongly connected components of the current write graph
// is discarded. The surviving set over-approximates the infinitely-firing
// transitions of every infinite computation, for every ring size — so a
// potential decreasing only on these still bounds every computation's tail.
func recurrentArcs(sys *core.System) []core.LocalTransition {
	arcs := append([]core.LocalTransition(nil), sys.Trans...)
	d := sys.Protocol().Domain()
	for {
		reach := valueReach(sys, arcs, d)
		kept := arcs[:0]
		for _, t := range arcs {
			va, vb := sys.OwnValue(t.Src), sys.OwnValue(t.Dst)
			if reach[vb][va] { // vb -> va completes a cycle through the edge va -> vb
				kept = append(kept, t)
			}
		}
		if len(kept) == len(arcs) {
			return kept
		}
		arcs = append([]core.LocalTransition(nil), kept...)
	}
}

// valueReach computes reflexive-transitive reachability over the write-value
// graph of arcs.
func valueReach(sys *core.System, arcs []core.LocalTransition, d int) [][]bool {
	adj := make([][]bool, d)
	reach := make([][]bool, d)
	for i := range adj {
		adj[i] = make([]bool, d)
		reach[i] = make([]bool, d)
		reach[i][i] = true
	}
	for _, t := range arcs {
		adj[sys.OwnValue(t.Src)][sys.OwnValue(t.Dst)] = true
	}
	for v := 0; v < d; v++ {
		queue := []int{v}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for y := 0; y < d; y++ {
				if adj[x][y] && !reach[v][y] {
					reach[v][y] = true
					queue = append(queue, y)
				}
			}
		}
	}
	return reach
}

// potentialRows builds the LP constraint rows: one per (recurrent
// transition, context), over a compact variable space covering only the
// local states some row references. Each row demands
//
//	sum_j row[j] * phi[state_j] <= -1,
//
// where the coefficients are the net change, across the actor and all w-1
// affected neighbors, of how many processes sit in each local state when the
// transition fires in that context. A row is dropped when an identical row
// of the same length was built before it. Rows are built while the variable
// space grows, so a row is not matched against an earlier, shorter one that
// equals it once padded to the final width: such duplicates stay in the LP.
// Returns the rows, the variable count, and the state code per variable.
func (a *analysis) potentialRows(ctx context.Context, rec []core.LocalTransition) ([][]int64, int, []int, error) {
	free := a.freeOffsets()
	ctxVals := map[int]int{}
	varOf := map[core.LocalState]int{}
	var states []int
	varID := func(s core.LocalState) int {
		if id, ok := varOf[s]; ok {
			return id
		}
		id := len(states)
		varOf[s] = id
		states = append(states, int(s))
		return id
	}
	seen := map[string]bool{}
	var key []byte
	var rows [][]int64
	for _, tr := range rec {
		if err := ctx.Err(); err != nil {
			return nil, 0, nil, err
		}
		srcView := a.p.Decode(tr.Src)
		srcOwn := srcView[a.own]
		dstOwn := a.p.Decode(tr.Dst)[a.own]
		for code := 0; code < a.nCtx; code++ {
			a.contextValues(code, free, ctxVals)
			row := map[int]int64{}
			for o := a.lo; o <= a.hi; o++ {
				before := varID(a.neighborState(srcView, srcOwn, ctxVals, o))
				after := varID(a.neighborState(srcView, dstOwn, ctxVals, o))
				row[before]--
				row[after]++
			}
			dense := make([]int64, len(states))
			for id, c := range row {
				dense[id] = c
			}
			// The entries as varints: a prefix-free code, so two rows share
			// a key exactly when they share length and entries.
			key = key[:0]
			for _, c := range dense {
				key = binary.AppendVarint(key, c)
			}
			if !seen[string(key)] {
				seen[string(key)] = true
				rows = append(rows, dense)
			}
		}
	}
	// Rows were built while the variable space grew; pad to the final width.
	for i, r := range rows {
		if len(r) < len(states) {
			padded := make([]int64, len(states))
			copy(padded, r)
			rows[i] = padded
		}
	}
	return rows, len(states), states, nil
}

// scaleWeights converts the LP's rational solution over the compact variable
// space into canonical integer weights over the full local state space:
// scale by the LCM of denominators, shift so the minimum weight is zero
// (every row's coefficients sum to zero, so a uniform shift preserves all
// sums), and divide by the GCD.
func scaleWeights(sol []*big.Rat, states []int, n int) []*big.Int {
	lcm := big.NewInt(1)
	for _, r := range sol {
		d := r.Denom()
		g := new(big.Int).GCD(nil, nil, lcm, d)
		lcm.Div(new(big.Int).Mul(lcm, d), g)
	}
	weights := make([]*big.Int, n)
	for i := range weights {
		weights[i] = new(big.Int)
	}
	for id, r := range sol {
		v := new(big.Int).Mul(r.Num(), new(big.Int).Div(lcm, r.Denom()))
		weights[states[id]].Set(v)
	}
	min := new(big.Int).Set(weights[0])
	for _, w := range weights[1:] {
		if w.Cmp(min) < 0 {
			min.Set(w)
		}
	}
	gcd := new(big.Int)
	for _, w := range weights {
		w.Sub(w, min)
		gcd.GCD(nil, nil, gcd, w)
	}
	if gcd.Sign() > 0 && gcd.Cmp(big.NewInt(1)) > 0 {
		for _, w := range weights {
			w.Div(w, gcd)
		}
	}
	return weights
}

// verifyWeights replays every (recurrent transition, context) constraint
// against integer weights, requiring a strictly negative sum.
func (a *analysis) verifyWeights(rec []core.LocalTransition, weights []*big.Int) error {
	free := a.freeOffsets()
	ctxVals := map[int]int{}
	for _, tr := range rec {
		srcView := a.p.Decode(tr.Src)
		srcOwn := srcView[a.own]
		dstOwn := a.p.Decode(tr.Dst)[a.own]
		for code := 0; code < a.nCtx; code++ {
			a.contextValues(code, free, ctxVals)
			sum := new(big.Int)
			for o := a.lo; o <= a.hi; o++ {
				sum.Sub(sum, weights[a.neighborState(srcView, srcOwn, ctxVals, o)])
				sum.Add(sum, weights[a.neighborState(srcView, dstOwn, ctxVals, o)])
			}
			if sum.Sign() >= 0 {
				return fmt.Errorf("transition %v in context %d: potential delta %v not negative", tr, code, sum)
			}
		}
	}
	return nil
}
