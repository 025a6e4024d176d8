package invariant

import (
	"context"
	"errors"
	"math/big"
	"math/bits"
)

// errPivotLimit aborts a simplex run that exceeds its pivot budget.
var errPivotLimit = errors.New("invariant: simplex pivot limit exceeded")

// errInexact reports a division in the int64 tableau that left a remainder.
// Every numerator of a correct fraction-free tableau is a multiple of den, so
// it can only mean a solver bug; the solve stops rather than truncate.
var errInexact = errors.New("invariant: simplex division inexact")

// errBitLimit aborts a simplex run whose promoted tableau grows an entry
// past maxCellBits.
var errBitLimit = errors.New("invariant: simplex entry size limit exceeded")

const (
	// maxTableauCells caps the stored tableau, m·(n+m) cells for m
	// constraints over n variables; termination checks it before solving.
	// matchingA, the largest LP the zoo or the benchmark pool produces, has
	// 157 × 184 = 28,888 cells.
	maxTableauCells = 1 << 22
	// maxCellBits caps the bit length of every entry once the tableau has
	// been promoted to big.Int. Entries are minors of the constraint matrix,
	// so real LPs stay far below it (a d=3 window [-2,1] sweep member peaks
	// at 33 bits).
	maxCellBits = 1 << 10
	// smallLimit bounds every entry of the int64 tableau: below it, each
	// product in a pivot stays under 2^62 and each update under 2^63.
	smallLimit = 1 << 31
)

// solveStrict decides feasibility of the homogeneous strict system
// rows · x < 0 (componentwise) over free rational x, and returns a solution.
// Strict feasibility is scale-invariant, so it is decided as rows · x <= -1
// by an exact phase-1 simplex: free variables are split x_j = u_j - v_j,
// each row gains a slack and an artificial, and the artificial sum is
// minimized. Determinism: Dantzig's rule (ties broken by smallest column)
// switching to Bland's least-index rule — which cannot cycle — after half
// the pivot budget; ratio ties break toward the smallest basis index.
//
// The tableau is fraction-free (Bareiss): integer entries over one shared
// positive denominator, updated by exact division, so every comparison the
// pivot rules make sees the same exact rationals a big.Rat tableau would.
func solveStrict(ctx context.Context, rows [][]int64, n, maxPivots int) (sol []*big.Rat, feasible bool, pivots int, err error) {
	if len(rows) == 0 {
		return zeroRats(n), true, 0, nil
	}
	t, pivots, err := runSimplex(ctx, newTableau(rows, n), maxPivots)
	if err != nil {
		return nil, false, pivots, err
	}
	sol, feasible = t.solution()
	return sol, feasible, pivots, nil
}

// runSimplex pivots t to optimality and returns the final tableau, which is
// a different value from t when an entry outgrew int64 along the way.
func runSimplex(ctx context.Context, t tableau, maxPivots int) (tableau, int, error) {
	pivots := 0
	bland := false
	for {
		if pivots%32 == 0 {
			if err := ctx.Err(); err != nil {
				return t, pivots, err
			}
		}
		e := t.entering(bland)
		if e < 0 {
			return t, pivots, nil // optimal
		}
		l := t.leaving(e)
		if l < 0 {
			// Phase 1 is bounded below by zero; an unbounded ray means the
			// tableau is corrupt.
			return t, pivots, errors.New("invariant: phase-1 simplex unbounded")
		}
		var err error
		if t, err = t.pivot(l, e); err != nil {
			return t, pivots, err
		}
		pivots++
		if pivots >= maxPivots {
			return t, pivots, errPivotLimit
		}
		if !bland && pivots >= maxPivots/2 {
			bland = true
		}
	}
}

// tableau is the phase-1 tableau in fraction-free form. Columns are numbered
// as in the full tableau — u_0..u_{n-1}, v_0..v_{n-1}, slacks s_0..s_{m-1},
// artificials a_0..a_{m-1} — so the pivot rules' tie-breaks see the same
// indices, but only the u and slack columns are stored: v_j = -u_j and
// a_i = -s_i hold through every pivot, since row operations preserve them,
// and the reduced costs mirror the same way (-obj[u_j], and 1 - obj[s_i]
// for a_i, which is den - obj[s_i] once scaled).
//
// Row i of rows·x <= -1, sign-flipped so the right-hand side is +1, reads
//
//	sum_j -r_ij·u_j + sum_j r_ij·v_j - s_i + a_i = 1,
//
// and the all-artificial basis starts it with denominator 1. A pivot on
// (l, e) with element p sets every entry x outside row l — right-hand side
// and objective row included — to (x·p - x_e·y)/den, where x_e is the entry
// of x's row in column e and y that of x's column in row l; it moves the
// artificial sum z to (z·p + c_e·rhs_l)/den (c_e the entering reduced
// cost), leaves row l as it is, and sets den = p. Every entry is a minor of
// the original system (den is the basis determinant), so the division is
// exact and the represented rationals entry/den are exactly those a
// rational tableau would hold. The int64 tableau checks every quotient
// rather than assume it exact, and stops with errInexact on a remainder.
type tableau interface {
	// entering returns the entering column, or -1 at optimality.
	entering(bland bool) int
	// leaving returns the row the ratio test selects for column e, or -1
	// when the column is unbounded.
	leaving(e int) int
	// pivot performs the pivot on (l, e) and returns the tableau to go on
	// with.
	pivot(l, e int) (tableau, error)
	// solution returns x = u - v when the artificial sum is zero.
	solution() ([]*big.Rat, bool)
}

// storedColumn maps column e to the stored column that mirrors it and
// whether the mirror is negated.
func storedColumn(e, n, m int) (k int, neg bool) {
	switch {
	case e < n:
		return e, false
	case e < 2*n:
		return e - n, true
	case e < 2*n+m:
		return e - n, false
	default:
		return e - n - m, true
	}
}

func zeroRats(n int) []*big.Rat {
	sol := make([]*big.Rat, n)
	for i := range sol {
		sol[i] = new(big.Rat)
	}
	return sol
}

// smallTableau holds every entry in int64, each of magnitude below
// smallLimit, so no product in a pivot can overflow. Each row of cells, and
// the objective row, carries a bitmask of its nonzero columns, which pivot
// keeps current: a pivot visits only the cells whose value can move.
type smallTableau struct {
	n, m, w int      // w = n+m stored columns per row
	words   int      // mask words per row
	basis   []int    // basic column per row
	cell    []int64  // m rows of w cells
	mask    []uint64 // m rows of words: bit j set iff the row's cell j is nonzero
	rhs     []int64
	obj     []int64  // scaled reduced costs of the stored columns
	objMask []uint64 // obj's nonzero columns, as in mask
	val     int64    // scaled artificial sum
	den     int64
}

// newTableau builds the starting tableau: int64 when every coefficient and
// every starting reduced cost is below smallLimit, big.Int otherwise.
func newTableau(rows [][]int64, n int) tableau {
	m := len(rows)
	w := n + m
	words := (w + 63) / 64
	t := &smallTableau{
		n: n, m: m, w: w, words: words,
		basis:   make([]int, m),
		cell:    make([]int64, m*w),
		mask:    make([]uint64, m*words),
		rhs:     make([]int64, m),
		obj:     make([]int64, w),
		objMask: make([]uint64, words),
		val:     int64(m),
		den:     1,
	}
	for i, r := range rows {
		for j := 0; j < n && j < len(r); j++ {
			c := r[j]
			if outOfRange(c) {
				return newBigTableau(rows, n)
			}
			t.cell[i*w+j] = -c
			t.obj[j] += c // -sum_i of the u column
		}
		t.cell[i*w+n+i] = -1
		t.rhs[i] = 1
		t.obj[n+i] = 1
		t.basis[i] = 2*n + m + i
		nonzeroMask(t.cell[i*w:(i+1)*w], t.mask[i*words:(i+1)*words])
	}
	nonzeroMask(t.obj, t.objMask)
	for _, o := range t.obj {
		if outOfRange(o) {
			return t.promote()
		}
	}
	if outOfRange(t.val) {
		return t.promote()
	}
	return t
}

// nonzeroMask sets mask to row's nonzero pattern.
func nonzeroMask(row []int64, mask []uint64) {
	clear(mask)
	for j, x := range row {
		if x != 0 {
			mask[j/64] |= 1 << (j % 64)
		}
	}
}

// outOfRange reports |x| >= smallLimit: the int64 tableau must promote
// before it pivots on x.
func outOfRange(x int64) bool {
	return uint64(x+(smallLimit-1)) > 2*(smallLimit-1)
}

// objOf returns the scaled reduced cost of column e.
func (t *smallTableau) objOf(e int) int64 {
	k, neg := storedColumn(e, t.n, t.m)
	switch {
	case e >= 2*t.n+t.m:
		return t.den - t.obj[k]
	case neg:
		return -t.obj[k]
	default:
		return t.obj[k]
	}
}

// entering scans the reduced costs in column order — u, v, s, a, each read
// off the stored obj — for Dantzig's most negative one (ties to the smallest
// column) or, under Bland's rule, the first negative one.
func (t *smallTableau) entering(bland bool) int {
	n, m := t.n, t.m
	u, s := t.obj[:n], t.obj[n:]
	e := -1
	var best int64
	for j, x := range u {
		if x < best {
			if bland {
				return j
			}
			best, e = x, j
		}
	}
	for j, x := range u {
		if -x < best {
			if bland {
				return n + j
			}
			best, e = -x, n+j
		}
	}
	for i, x := range s {
		if x < best {
			if bland {
				return 2*n + i
			}
			best, e = x, 2*n+i
		}
	}
	for i, x := range s {
		if x = t.den - x; x < best {
			if bland {
				return 2*n + m + i
			}
			best, e = x, 2*n+m+i
		}
	}
	return e
}

func (t *smallTableau) leaving(e int) int {
	k, neg := storedColumn(e, t.n, t.m)
	leave := -1
	var la int64 // column entry of the current leaving row
	for i := 0; i < t.m; i++ {
		a := t.cell[i*t.w+k]
		if neg {
			a = -a
		}
		if a <= 0 {
			continue
		}
		if leave >= 0 {
			// rhs[i]/a against rhs[leave]/la, by cross-multiplication.
			x, y := t.rhs[i]*la, t.rhs[leave]*a
			if x > y || (x == y && t.basis[i] > t.basis[leave]) {
				continue
			}
		}
		leave, la = i, a
	}
	return leave
}

func (t *smallTableau) pivot(l, e int) (tableau, error) {
	fo := t.objOf(e)
	if outOfRange(fo) {
		// An artificial column's reduced cost den - obj[s_i] can reach
		// 2^32; its products would not fit.
		return t.promote().pivot(l, e)
	}
	k, neg := storedColumn(e, t.n, t.m)
	w, nw := t.w, t.words
	prow := t.cell[l*w : (l+1)*w]
	pmask := t.mask[l*nw : (l+1)*nw]
	p := prow[k]
	if neg {
		p = -p
	}
	q := newExactDiv(t.den)
	rl := t.rhs[l]
	var faults divFault
	for i := 0; i < t.m; i++ {
		if i == l {
			continue
		}
		row := t.cell[i*w : (i+1)*w]
		f := row[k]
		if neg {
			f = -f
		}
		if f == 0 && p == q.d {
			continue // every value keeps x·p/den = x
		}
		faults |= updateRow(row, t.mask[i*nw:(i+1)*nw], prow, pmask, p, f, q)
		r, bad := q.quo(t.rhs[i]*p - f*rl)
		t.rhs[i], faults = r, faults|bad
	}
	faults |= updateRow(t.obj, t.objMask, prow, pmask, p, fo, q)
	// The artificial sum moves by the entering column's reduced cost times
	// its step rhs[l]/p.
	v, bad := q.quo(t.val*p + fo*rl)
	t.val, faults = v, faults|bad
	t.basis[l] = e
	t.den = p
	switch {
	case faults&divInexact != 0:
		return t, errInexact
	case faults&divOver != 0:
		return t.promote(), nil
	}
	return t, nil
}

// updateRow sets each cell x of row to (x·p - f·y)/den, y the pivot row's
// cell in its column, and keeps the row's mask current. Only two kinds of
// cell can move: those under a nonzero y when f ≠ 0, and the row's own
// nonzeros when p ≠ den. Any other cell is zero and stays zero, or keeps
// x·den/den = x.
func updateRow(row []int64, mask []uint64, prow []int64, pmask []uint64, p, f int64, q exactDiv) divFault {
	var fm, rm uint64
	if f != 0 {
		fm = ^uint64(0)
	}
	if p != q.d {
		rm = ^uint64(0)
	}
	var faults divFault
	for wi, rw := range mask {
		visit := pmask[wi]&fm | rw&rm
		nz := rw &^ visit
		for b := visit; b != 0; b &= b - 1 {
			j := wi*64 + bits.TrailingZeros64(b)
			// quo's two halves, since quo itself is too large to inline.
			num := row[j]*p - f*prow[j]
			x, ok := q.fast(num)
			if !ok {
				var bad divFault
				x, bad = q.slow(num)
				faults |= bad
			}
			row[j] = x
			if x != 0 {
				nz |= b & -b
			}
		}
		mask[wi] = nz
	}
	return faults
}

// exactDiv divides by a pivot's den, 0 < den < smallLimit, which divides
// every numerator of a correct tableau (Bareiss). A quotient costs a shift
// and a multiplication by the inverse of den's odd part mod 2^64, and one
// more multiplication proves it exact; only a quotient that fails the
// proof pays for a hardware division.
type exactDiv struct {
	d     int64
	shift uint  // den's factors of two, below 31
	inv   int64 // inverse of den>>shift mod 2^64
}

// divFault records what a slow-path quotient found.
type divFault uint8

const (
	divOver    divFault = 1 << iota // a quotient is out of range: promote
	divInexact                      // a numerator is not a multiple of den: a solver bug
)

func newExactDiv(d int64) exactDiv {
	shift := uint(bits.TrailingZeros64(uint64(d)))
	odd := uint64(d) >> shift
	// 3·odd XOR 2 is odd's inverse mod 2^5, and each Newton step doubles
	// the bits that are right (Granlund and Montgomery): 5, 10, 20, 40, 80.
	inv := (3 * odd) ^ 2
	for i := 0; i < 4; i++ {
		inv *= 2 - odd*inv
	}
	return exactDiv{d: d, shift: shift, inv: int64(inv)}
}

// quo returns num/den, and what the slow path found if it was taken.
func (q exactDiv) quo(num int64) (int64, divFault) {
	if x, ok := q.fast(num); ok {
		return x, 0
	}
	return q.slow(num)
}

// fast returns num/den and true when den divides num and the quotient is in
// range: shifting out den's factors of two is then exact, and the
// multiplication yields the quotient. The result is checked, not assumed:
// |x| < smallLimit and den < smallLimit bound |x·den| below 2^62, so
// x·den == num holds in wrapping arithmetic only if it holds over the
// integers. (The mask on the shift only spares the compiler a range check.)
func (q exactDiv) fast(num int64) (int64, bool) {
	x := (num >> (q.shift & 63)) * q.inv
	return x, !outOfRange(x) && x*q.d == num
}

// slow divides num by den in hardware, for a quotient out of range (exact,
// and the tableau promotes) or a numerator den does not divide.
func (q exactDiv) slow(num int64) (int64, divFault) {
	x := num / q.d
	var fault divFault
	if num%q.d != 0 {
		fault |= divInexact
	}
	if outOfRange(x) {
		fault |= divOver
	}
	return x, fault
}

func (t *smallTableau) solution() ([]*big.Rat, bool) {
	if t.val != 0 {
		return nil, false // artificials cannot be driven out: infeasible
	}
	sol := zeroRats(t.n)
	for i, b := range t.basis {
		switch {
		case b < t.n:
			sol[b].SetFrac64(t.rhs[i], t.den)
		case b < 2*t.n:
			sol[b-t.n].SetFrac64(-t.rhs[i], t.den)
		}
	}
	return sol, true
}

// promote copies t into a big.Int tableau, in the middle of a solve.
func (t *smallTableau) promote() *bigTableau {
	b := &bigTableau{
		n: t.n, m: t.m, w: t.w,
		basis: t.basis,
		cell:  make([]big.Int, len(t.cell)),
		rhs:   make([]big.Int, len(t.rhs)),
		obj:   make([]big.Int, len(t.obj)),
	}
	for i, x := range t.cell {
		b.cell[i].SetInt64(x)
	}
	for i, x := range t.rhs {
		b.rhs[i].SetInt64(x)
	}
	for i, x := range t.obj {
		b.obj[i].SetInt64(x)
	}
	b.val.SetInt64(t.val)
	b.den.SetInt64(t.den)
	return b
}

// bigTableau is smallTableau's layout over big.Int, for LPs whose entries
// outgrow int64.
type bigTableau struct {
	n, m, w  int
	basis    []int
	cell     []big.Int
	rhs      []big.Int
	obj      []big.Int
	val, den big.Int
}

// newBigTableau builds the starting tableau directly in big.Int, for
// coefficients too large for the int64 tableau.
func newBigTableau(rows [][]int64, n int) *bigTableau {
	m := len(rows)
	w := n + m
	t := &bigTableau{
		n: n, m: m, w: w,
		basis: make([]int, m),
		cell:  make([]big.Int, m*w),
		rhs:   make([]big.Int, m),
		obj:   make([]big.Int, w),
	}
	var c big.Int
	for i, r := range rows {
		for j := 0; j < n && j < len(r); j++ {
			c.SetInt64(r[j])
			t.cell[i*w+j].Neg(&c)
			t.obj[j].Add(&t.obj[j], &c)
		}
		t.cell[i*w+n+i].SetInt64(-1)
		t.rhs[i].SetInt64(1)
		t.obj[n+i].SetInt64(1)
		t.basis[i] = 2*n + m + i
	}
	t.val.SetInt64(int64(m))
	t.den.SetInt64(1)
	return t
}

// objOf sets into to the scaled reduced cost of column e.
func (t *bigTableau) objOf(e int, into *big.Int) {
	k, neg := storedColumn(e, t.n, t.m)
	switch {
	case e >= 2*t.n+t.m:
		into.Sub(&t.den, &t.obj[k])
	case neg:
		into.Neg(&t.obj[k])
	default:
		into.Set(&t.obj[k])
	}
}

func (t *bigTableau) entering(bland bool) int {
	e := -1
	var best, x big.Int
	for j := 0; j < 2*t.n+2*t.m; j++ {
		t.objOf(j, &x)
		if bland {
			if x.Sign() < 0 {
				return j
			}
		} else if x.Cmp(&best) < 0 {
			best.Set(&x)
			e = j
		}
	}
	return e
}

func (t *bigTableau) leaving(e int) int {
	k, neg := storedColumn(e, t.n, t.m)
	leave := -1
	var a, la, x, y big.Int
	for i := 0; i < t.m; i++ {
		a.Set(&t.cell[i*t.w+k])
		if neg {
			a.Neg(&a)
		}
		if a.Sign() <= 0 {
			continue
		}
		if leave >= 0 {
			x.Mul(&t.rhs[i], &la)
			y.Mul(&t.rhs[leave], &a)
			if c := x.Cmp(&y); c > 0 || (c == 0 && t.basis[i] > t.basis[leave]) {
				continue
			}
		}
		leave = i
		la.Set(&a)
	}
	return leave
}

func (t *bigTableau) pivot(l, e int) (tableau, error) {
	k, neg := storedColumn(e, t.n, t.m)
	w := t.w
	prow := t.cell[l*w : (l+1)*w]
	var p, f, fo, d, x1, x2, rem big.Int
	p.Set(&prow[k])
	if neg {
		p.Neg(&p)
	}
	t.objOf(e, &fo)
	d.Set(&t.den)
	rl := &t.rhs[l]
	over := false
	// update sets x = (x·p - g·y)/d.
	update := func(x, g, y *big.Int) {
		x1.Mul(x, &p)
		x2.Mul(g, y)
		x1.Sub(&x1, &x2)
		x.QuoRem(&x1, &d, &rem)
		over = over || x.BitLen() > maxCellBits
	}
	pIsD := p.Cmp(&d) == 0
	for i := 0; i < t.m; i++ {
		if i == l {
			continue
		}
		row := t.cell[i*w : (i+1)*w]
		f.Set(&row[k])
		if neg {
			f.Neg(&f)
		}
		fZero := f.Sign() == 0
		if !(fZero && pIsD) {
			for j := range row {
				// A cell keeps its value when f·y vanishes and either x
				// does too or p = d.
				if (fZero || prow[j].Sign() == 0) && (pIsD || row[j].Sign() == 0) {
					continue
				}
				update(&row[j], &f, &prow[j])
			}
		}
		update(&t.rhs[i], &f, rl)
	}
	for j := range prow {
		if t.obj[j].Sign() == 0 && prow[j].Sign() == 0 {
			continue
		}
		update(&t.obj[j], &fo, &prow[j])
	}
	// val' = (val·p + fo·rhs[l])/d, the objective value's sign convention.
	fo.Neg(&fo)
	update(&t.val, &fo, rl)
	t.basis[l] = e
	t.den.Set(&p)
	if over {
		return t, errBitLimit
	}
	return t, nil
}

func (t *bigTableau) solution() ([]*big.Rat, bool) {
	if t.val.Sign() != 0 {
		return nil, false // artificials cannot be driven out: infeasible
	}
	sol := zeroRats(t.n)
	var neg big.Int
	for i, b := range t.basis {
		switch {
		case b < t.n:
			sol[b].SetFrac(&t.rhs[i], &t.den)
		case b < 2*t.n:
			sol[b-t.n].SetFrac(neg.Neg(&t.rhs[i]), &t.den)
		}
	}
	return sol, true
}
