package invariant

import (
	"context"
	"errors"
	"math/big"
)

// This file keeps the LP solver the invariant lane used before its
// fraction-free rewrite: a dense big.Rat tableau, pivoted with the same
// rules. It is the reference FuzzSimplexEquivalence holds solveStrict to.

// refSolveStrict decides feasibility of the homogeneous strict system
// rows · x < 0 (componentwise) over free rational x, and returns a solution.
// Strict feasibility is scale-invariant, so it is decided as rows · x <= -1
// by a phase-1 simplex over exact rationals: free variables are split
// x_j = u_j - v_j, each row gains a slack and an artificial, and the
// artificial sum is minimized. Determinism: Dantzig's rule (ties broken by
// smallest column) switching to Bland's least-index rule — which cannot
// cycle — after half the pivot budget; ratio ties break toward the smallest
// basis index.
func refSolveStrict(ctx context.Context, rows [][]int64, n, maxPivots int) (sol []*big.Rat, feasible bool, pivots int, err error) {
	m := len(rows)
	if m == 0 {
		sol = make([]*big.Rat, n)
		for i := range sol {
			sol[i] = new(big.Rat)
		}
		return sol, true, 0, nil
	}
	// Columns: u_0..u_{n-1}, v_0..v_{n-1}, slack s_0..s_{m-1}, artificial
	// a_0..a_{m-1}. Row i of rows·x <= -1, sign-flipped so the RHS is +1:
	//
	//	sum_j -r_ij·u_j + sum_j r_ij·v_j - s_i + a_i = 1.
	cols := 2*n + 2*m
	T := make([][]*big.Rat, m)
	rhs := make([]*big.Rat, m)
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		T[i] = make([]*big.Rat, cols)
		for j := range T[i] {
			T[i][j] = new(big.Rat)
		}
		for j := 0; j < n && j < len(rows[i]); j++ {
			if c := rows[i][j]; c != 0 {
				T[i][j].SetInt64(-c)
				T[i][n+j].SetInt64(c)
			}
		}
		T[i][2*n+i].SetInt64(-1)
		T[i][2*n+m+i].SetInt64(1)
		rhs[i] = big.NewRat(1, 1)
		basis[i] = 2*n + m + i
	}
	// Reduced costs for the all-artificial starting basis (cost 1 on
	// artificials, 0 elsewhere): obj_j = -sum_i T[i][j] on non-artificial
	// columns, 0 on artificial columns; objective value starts at m.
	obj := make([]*big.Rat, cols)
	for j := 0; j < cols; j++ {
		obj[j] = new(big.Rat)
		if j < 2*n+m {
			for i := 0; i < m; i++ {
				obj[j].Sub(obj[j], T[i][j])
			}
		}
	}
	objVal := new(big.Rat).SetInt64(int64(m))

	bland := false
	for {
		if pivots%32 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, false, pivots, err
			}
		}
		e := -1
		if bland {
			for j := 0; j < cols; j++ {
				if obj[j].Sign() < 0 {
					e = j
					break
				}
			}
		} else {
			best := new(big.Rat)
			for j := 0; j < cols; j++ {
				if obj[j].Cmp(best) < 0 {
					best.Set(obj[j])
					e = j
				}
			}
		}
		if e < 0 {
			break // optimal
		}
		leave := -1
		ratio := new(big.Rat)
		for i := 0; i < m; i++ {
			if T[i][e].Sign() <= 0 {
				continue
			}
			r := new(big.Rat).Quo(rhs[i], T[i][e])
			if leave < 0 || r.Cmp(ratio) < 0 ||
				(r.Cmp(ratio) == 0 && basis[i] < basis[leave]) {
				leave = i
				ratio = r
			}
		}
		if leave < 0 {
			// Phase 1 is bounded below by zero; an unbounded ray means the
			// tableau is corrupt.
			return nil, false, pivots, errors.New("invariant: phase-1 simplex unbounded")
		}
		refPivot(T, rhs, obj, objVal, basis, leave, e)
		pivots++
		if pivots >= maxPivots {
			return nil, false, pivots, errPivotLimit
		}
		if !bland && pivots >= maxPivots/2 {
			bland = true
		}
	}
	if objVal.Sign() != 0 {
		return nil, false, pivots, nil // artificials cannot be driven out: infeasible
	}
	sol = make([]*big.Rat, n)
	for j := range sol {
		sol[j] = new(big.Rat)
	}
	for i, b := range basis {
		switch {
		case b < n:
			sol[b].Add(sol[b], rhs[i])
		case b < 2*n:
			sol[b-n].Sub(sol[b-n], rhs[i])
		}
	}
	return sol, true, pivots, nil
}

// refPivot performs one tableau pivot: row li leaves the basis, column e enters.
func refPivot(T [][]*big.Rat, rhs, obj []*big.Rat, objVal *big.Rat, basis []int, li, e int) {
	piv := new(big.Rat).Set(T[li][e])
	for j := range T[li] {
		if T[li][j].Sign() != 0 {
			T[li][j].Quo(T[li][j], piv)
		}
	}
	rhs[li].Quo(rhs[li], piv)
	tmp := new(big.Rat)
	for i := range T {
		if i == li || T[i][e].Sign() == 0 {
			continue
		}
		f := new(big.Rat).Set(T[i][e])
		for j := range T[i] {
			if T[li][j].Sign() == 0 {
				continue
			}
			T[i][j].Sub(T[i][j], tmp.Mul(f, T[li][j]))
		}
		rhs[i].Sub(rhs[i], tmp.Mul(f, rhs[li]))
	}
	if obj[e].Sign() != 0 {
		f := new(big.Rat).Set(obj[e])
		for j := range obj {
			if T[li][j].Sign() == 0 {
				continue
			}
			obj[j].Sub(obj[j], tmp.Mul(f, T[li][j]))
		}
		// z moves by the entering column's reduced cost times its step:
		// z <- z + f * rhs'[li] (f < 0, rhs' >= 0, so z decreases).
		objVal.Add(objVal, tmp.Mul(f, rhs[li]))
	}
	basis[li] = e
}
