package invariant

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func feasibleStrict(t *testing.T, rows [][]int64, n int) (sol []*big.Rat, ok bool) {
	t.Helper()
	sol, ok, _, err := solveStrict(context.Background(), rows, n, 100000)
	if err != nil {
		t.Fatalf("solveStrict: %v", err)
	}
	return sol, ok
}

func TestSolveStrictBasics(t *testing.T) {
	cases := []struct {
		name string
		rows [][]int64
		n    int
		want bool
	}{
		{"empty system", nil, 3, true},
		{"single variable", [][]int64{{1}}, 1, true},
		{"contradictory pair", [][]int64{{1}, {-1}}, 1, false},
		{"antisymmetric", [][]int64{{1, -1}, {-1, 1}}, 2, false},
		{"triangular", [][]int64{{1, 0}, {1, -1}}, 2, true},
		{"zero row", [][]int64{{0, 0}}, 2, false},
		{"chain", [][]int64{{1, -1, 0}, {0, 1, -1}}, 3, true},
		{"cycle sums to zero", [][]int64{{1, -1, 0}, {0, 1, -1}, {-1, 0, 1}}, 3, false},
	}
	for _, tc := range cases {
		sol, ok := feasibleStrict(t, tc.rows, tc.n)
		if ok != tc.want {
			t.Errorf("%s: feasible = %v, want %v", tc.name, ok, tc.want)
		}
		if ok {
			assertStrict(t, tc.name, tc.rows, sol)
		}
	}
}

func assertStrict(t *testing.T, name string, rows [][]int64, sol []*big.Rat) {
	t.Helper()
	for ri, row := range rows {
		sum := new(big.Rat)
		for j, c := range row {
			if c != 0 {
				sum.Add(sum, new(big.Rat).Mul(big.NewRat(c, 1), sol[j]))
			}
		}
		if sum.Sign() >= 0 {
			t.Errorf("%s: row %d: %v · sol = %v, want < 0", name, ri, row, sum)
		}
	}
}

// TestSolveStrictRandomFeasible plants a random solution, builds rows it
// strictly satisfies, and requires the solver to find a (possibly
// different) strict solution.
func TestSolveStrictRandomFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		planted := make([]int64, n)
		for j := range planted {
			planted[j] = int64(rng.Intn(21) - 10)
		}
		m := 1 + rng.Intn(12)
		rows := make([][]int64, 0, m)
		for len(rows) < m {
			row := make([]int64, n)
			var dot int64
			for j := range row {
				row[j] = int64(rng.Intn(7) - 3)
				dot += row[j] * planted[j]
			}
			if dot == 0 {
				continue // flipping cannot make it strict; resample
			}
			if dot > 0 {
				for j := range row {
					row[j] = -row[j]
				}
			}
			rows = append(rows, row)
		}
		sol, ok := feasibleStrict(t, rows, n)
		if !ok {
			t.Fatalf("trial %d: planted-feasible system reported infeasible (planted %v, rows %v)",
				trial, planted, rows)
		}
		assertStrict(t, "random", rows, sol)
	}
}

// TestSolveStrictRandomInfeasible embeds a positive combination that sums
// to zero (row + its negation), which no strict solution can satisfy.
func TestSolveStrictRandomInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		m := rng.Intn(8)
		var rows [][]int64
		for i := 0; i < m; i++ {
			row := make([]int64, n)
			for j := range row {
				row[j] = int64(rng.Intn(7) - 3)
			}
			rows = append(rows, row)
		}
		row := make([]int64, n)
		for j := range row {
			row[j] = int64(rng.Intn(7) - 3)
		}
		neg := make([]int64, n)
		for j := range row {
			neg[j] = -row[j]
		}
		rows = append(rows, row, neg)
		if _, ok := feasibleStrict(t, rows, n); ok {
			t.Fatalf("trial %d: infeasible system reported feasible (rows %v)", trial, rows)
		}
	}
}

// TestSolveStrictDeterministic pins that repeated solves return the
// identical solution vector.
func TestSolveStrictDeterministic(t *testing.T) {
	rows := [][]int64{{1, -1, 0, 2}, {0, 1, -1, -1}, {2, 0, 1, -3}, {-1, 2, 0, -1}}
	first, ok := feasibleStrict(t, rows, 4)
	if !ok {
		t.Fatalf("system unexpectedly infeasible")
	}
	for i := 0; i < 5; i++ {
		again, ok := feasibleStrict(t, rows, 4)
		if !ok {
			t.Fatalf("rerun %d infeasible", i)
		}
		for j := range first {
			if first[j].Cmp(again[j]) != 0 {
				t.Fatalf("rerun %d: sol[%d] = %v, first run %v", i, j, again[j], first[j])
			}
		}
	}
}

// decodeLP turns fuzz bytes into a strict system. The header is n (mod 13),
// m (mod 41), a shift (mod 41) and two bytes of pivot budget (1..512); then
// each coefficient, row-major, is hi<<shift + lo for two signed bytes, and
// zero once the data runs out. So |c| < 2^47, and with n <= 12 every
// tableau entry is a minor of order at most 13 (on the objective row, a sum
// of at most 41 of them): by Hadamard's bound it stays below 2^650, well
// inside maxCellBits, so the two solvers always have an answer to compare.
func decodeLP(data []byte) (rows [][]int64, n, maxPivots int) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n = int(at(0)) % 13
	m := int(at(1)) % 41
	shift := uint(at(2)) % 41
	maxPivots = 1 + (int(at(3))|int(at(4))<<8)%512
	pos := 5
	rows = make([][]int64, m)
	for i := range rows {
		rows[i] = make([]int64, n)
		for j := range rows[i] {
			rows[i][j] = int64(int8(at(pos)))<<shift + int64(int8(at(pos+1)))
			pos += 2
		}
	}
	return rows, n, maxPivots
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzSimplexEquivalence holds the fraction-free solver to the big.Rat
// reference it replaced: on every decoded system the two must agree on
// feasibility, pivot count, errors (the pivot limit included) and every
// solution entry, and every nonzero mask of the int64 tableau must match its
// row after every pivot. testdata/fuzz holds seeds for each path through
// the solver; TestSimplexSeedPaths pins which path each one takes.
func FuzzSimplexEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, n, maxPivots := decodeLP(data)
		matchReference(t, rows, n, maxPivots)
		if p := traceLP(rows, n, maxPivots); p.maskErr != "" {
			t.Fatalf("rows %v, maxPivots %d: %s", rows, maxPivots, p.maskErr)
		}
	})
}

// matchReference fails t unless solveStrict and the big.Rat reference agree
// on the system.
func matchReference(t *testing.T, rows [][]int64, n, maxPivots int) {
	t.Helper()
	ctx := context.Background()
	wantSol, wantOK, wantPivots, wantErr := refSolveStrict(ctx, rows, n, maxPivots)
	sol, ok, pivots, err := solveStrict(ctx, rows, n, maxPivots)
	if errText(err) != errText(wantErr) || ok != wantOK || pivots != wantPivots || len(sol) != len(wantSol) {
		t.Fatalf("rows %v, maxPivots %d: got (feasible %v, pivots %d, err %v, %d entries), reference (feasible %v, pivots %d, err %v, %d entries)",
			rows, maxPivots, ok, pivots, err, len(sol), wantOK, wantPivots, wantErr, len(wantSol))
	}
	for j := range wantSol {
		if sol[j].Cmp(wantSol[j]) != 0 {
			t.Fatalf("rows %v, maxPivots %d: sol[%d] = %v, reference %v", rows, maxPivots, j, sol[j], wantSol[j])
		}
	}
}

// lpPath records which branches of the solver a system exercises.
type lpPath struct {
	m, maxPivots, pivots int
	startBig, endBig     bool
	feasible             bool
	err                  error

	// The int64 tableau's pivots: how many it ran (a pivot that promotes on
	// an out-of-range quotient included) and which update paths they took.
	smallPivots int
	pIsDen      bool   // p = den: rows visit the pivot row's nonzeros only
	fZero       bool   // f = 0 with p ≠ den: a row visits its own nonzeros
	fillIn      bool   // a zero cell became nonzero
	cancel      bool   // a nonzero cell outside the entering column became zero
	evenDen     bool   // den even: the exact division shifts
	slow        bool   // a quotient fell to the slow path (and promoted)
	maskErr     string // the first mask found disagreeing with its row
}

// traceLP runs the solver on the system through watchedTableau and reports
// the path it took.
func traceLP(rows [][]int64, n, maxPivots int) lpPath {
	path := lpPath{m: len(rows), maxPivots: maxPivots}
	if len(rows) == 0 {
		path.feasible = true
		return path
	}
	t0 := newTableau(rows, n)
	_, path.startBig = t0.(*bigTableau)
	t, pivots, err := runSimplex(context.Background(), watchedTableau{t0, &path}, maxPivots)
	inner := t.(watchedTableau).tableau
	_, path.endBig = inner.(*bigTableau)
	path.pivots, path.err = pivots, err
	if err == nil {
		_, path.feasible = inner.solution()
	}
	return path
}

// watchedTableau passes runSimplex's calls through to the tableau it wraps
// and, around each pivot of the int64 tableau, checks every mask against
// its row's nonzero pattern and records in path which update paths the
// pivot took.
type watchedTableau struct {
	tableau
	path *lpPath
}

func (w watchedTableau) pivot(l, e int) (tableau, error) {
	st, small := w.tableau.(*smallTableau)
	if !small || outOfRange(st.objOf(e)) {
		// big.Int already, or promoted before any int64 update.
		next, err := w.tableau.pivot(l, e)
		return watchedTableau{next, w.path}, err
	}
	path := w.path
	path.smallPivots++
	checkMasks(st, path)
	k, neg := storedColumn(e, st.n, st.m)
	p := st.cell[l*st.w+k]
	if neg {
		p = -p
	}
	path.pIsDen = path.pIsDen || p == st.den
	path.evenDen = path.evenDen || st.den%2 == 0
	for i := 0; i < st.m; i++ {
		path.fZero = path.fZero || (i != l && st.cell[i*st.w+k] == 0 && p != st.den)
	}
	before := append([]int64(nil), st.cell...)
	next, err := w.tableau.pivot(l, e)
	if _, promoted := next.(*bigTableau); promoted {
		path.slow = true
	}
	if err == nil {
		// The int64 tableau is updated in place, also when it then promotes.
		checkMasks(st, path)
		for i := 0; i < st.m; i++ {
			if i == l {
				continue
			}
			for j := 0; j < st.w; j++ {
				was, is := before[i*st.w+j], st.cell[i*st.w+j]
				path.fillIn = path.fillIn || (was == 0 && is != 0)
				path.cancel = path.cancel || (j != k && was != 0 && is == 0)
			}
		}
	}
	return watchedTableau{next, path}, err
}

// checkMasks records in path the first mask of st, the objective row's
// included, that differs from its row's nonzero pattern.
func checkMasks(st *smallTableau, path *lpPath) {
	if path.maskErr != "" {
		return
	}
	want := make([]uint64, st.words)
	for i := 0; i <= st.m; i++ {
		row, mask := st.obj, st.objMask
		if i < st.m {
			row, mask = st.cell[i*st.w:(i+1)*st.w], st.mask[i*st.words:(i+1)*st.words]
		}
		nonzeroMask(row, want)
		for wi := range want {
			if mask[wi] != want[wi] {
				path.maskErr = fmt.Sprintf("around int64 pivot %d, row %d (of %d; %d is the objective) has mask word %d = %#x, cells give %#x",
					path.smallPivots, i, st.m, st.m, wi, mask[wi], want[wi])
				return
			}
		}
	}
}

// simplexSeedPaths names the committed FuzzSimplexEquivalence seeds and the
// path each must take.
var simplexSeedPaths = map[string]func(p lpPath) bool{
	// Solved without ever leaving int64.
	"seed-int64": func(p lpPath) bool { return p.m > 0 && p.err == nil && !p.endBig && p.feasible },
	// Starts in int64 and promotes to big.Int between pivots.
	"seed-promote-midsolve": func(p lpPath) bool { return p.err == nil && !p.startBig && p.endBig },
	// A coefficient at or above 2^31: big.Int from the first pivot.
	"seed-start-big": func(p lpPath) bool { return p.err == nil && p.startBig },
	// At least one pivot chosen by Bland's rule before optimality.
	"seed-bland": func(p lpPath) bool {
		return p.err == nil && p.maxPivots/2 >= 1 && p.pivots > p.maxPivots/2
	},
	"seed-pivot-limit": func(p lpPath) bool { return p.err == errPivotLimit },
	"seed-infeasible":  func(p lpPath) bool { return p.m > 0 && p.err == nil && !p.feasible },
	"seed-empty":       func(p lpPath) bool { return p.m == 0 },
	// Masked int64 pivots that both fill a zero cell and cancel a nonzero
	// one outside the entering column.
	"seed-fill-cancel": func(p lpPath) bool { return p.err == nil && !p.endBig && p.fillIn && p.cancel },
	// An int64 pivot under an even den, so the exact division shifts.
	"seed-even-den": func(p lpPath) bool { return p.err == nil && !p.endBig && p.evenDen },
	// Masked int64 pivots, then an out-of-range quotient takes the slow
	// path and the tableau promotes.
	"seed-promote-masked": func(p lpPath) bool {
		return p.err == nil && !p.startBig && p.endBig && p.slow && p.smallPivots >= 2
	},
}

// readFuzzSeed decodes a one-argument []byte seed file of the go test
// corpus format.
func readFuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-argument []byte seed", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestSimplexSeedPaths pins that every committed FuzzSimplexEquivalence seed
// still reaches the solver path its name promises, so the seed replay keeps
// covering int64 solving, promotion, the big.Int start, Bland's rule, the
// pivot limit, infeasibility, the empty system, fill-in and cancellation
// under the masks, an even den, and promotion through the slow path after
// masked pivots.
func TestSimplexSeedPaths(t *testing.T) {
	for name, ok := range simplexSeedPaths {
		data := readFuzzSeed(t, filepath.Join("testdata", "fuzz", "FuzzSimplexEquivalence", name))
		rows, n, maxPivots := decodeLP(data)
		p := traceLP(rows, n, maxPivots)
		if !ok(p) {
			t.Errorf("%s: took path %+v", name, p)
		}
		if p.maskErr != "" {
			t.Errorf("%s: %s", name, p.maskErr)
		}
	}
}

// TestSolveStrictMatchesReference runs FuzzSimplexEquivalence's comparison
// over a fixed stream of random systems — sparse small coefficients like the
// termination LPs', plus coefficients shifted to 2^20 and 2^33 — with pivot
// budgets small enough that some runs switch to Bland's rule or stop at the
// limit. Every int64 pivot must leave each row's mask equal to its nonzero
// pattern, and the stream must reach Bland's rule, the pivot limit, mid-solve
// promotion, and each update path of the masked pivot: p = den, f = 0 with
// p ≠ den, fill-in, cancellation, an even den and the slow path.
func TestSolveStrictMatchesReference(t *testing.T) {
	trials := 600
	if testing.Short() {
		trials = 100
	}
	rng := rand.New(rand.NewSource(14))
	var bland, limited, promoted int
	var seen lpPath
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(10)
		m := 1 + rng.Intn(30)
		shift := []int{0, 0, 0, 20, 33}[rng.Intn(5)]
		if shift > 0 {
			m = 1 + rng.Intn(12) // the reference's big.Rat pivots are slow here
		}
		budget := 4 + rng.Intn(60)
		data := []byte{byte(n), byte(m), byte(shift), byte(budget), 0}
		for k := 0; k < n*m; k++ {
			if rng.Intn(2) == 0 {
				data = append(data, 0, 0)
				continue
			}
			data = append(data, byte(int8(rng.Intn(5)-2)), byte(int8(rng.Intn(7)-3)))
		}
		rows, n, maxPivots := decodeLP(data)
		matchReference(t, rows, n, maxPivots)
		p := traceLP(rows, n, maxPivots)
		if p.maskErr != "" {
			t.Fatalf("rows %v, maxPivots %d: %s", rows, maxPivots, p.maskErr)
		}
		switch {
		case p.err == errPivotLimit:
			limited++
		case p.pivots > maxPivots/2:
			bland++
		}
		if p.endBig && !p.startBig {
			promoted++
		}
		seen.pIsDen = seen.pIsDen || p.pIsDen
		seen.fZero = seen.fZero || p.fZero
		seen.fillIn = seen.fillIn || p.fillIn
		seen.cancel = seen.cancel || p.cancel
		seen.evenDen = seen.evenDen || p.evenDen
		seen.slow = seen.slow || p.slow
	}
	if bland == 0 || limited == 0 || promoted == 0 {
		t.Errorf("%d systems: %d finished under Bland's rule, %d hit the pivot limit, %d promoted mid-solve; want each path covered",
			trials, bland, limited, promoted)
	}
	if !(seen.pIsDen && seen.fZero && seen.fillIn && seen.cancel && seen.evenDen && seen.slow) {
		t.Errorf("%d systems: masked pivot paths reached: p = den %v, f = 0 with p ≠ den %v, fill-in %v, cancellation %v, even den %v, slow path %v; want all",
			trials, seen.pIsDen, seen.fZero, seen.fillIn, seen.cancel, seen.evenDen, seen.slow)
	}
}

// TestPivotInexactDivision pins that the int64 pivot checks its divisions:
// with den corrupted from 1 to 2, one numerator of the next pivot is odd,
// and the pivot must return errInexact where a plain division would have
// stored the truncated quotient.
func TestPivotInexactDivision(t *testing.T) {
	// Row 0 stores (-1, 1 | -1, 0), row 1 (1, -2 | 0, -1). Pivoting on u_0
	// in row 1 (p = 1) sets row 0's u_1 cell to (1·1 - (-1)·(-2))/den, which
	// is -1/2 under the corrupt den.
	tab := newTableau([][]int64{{1, -1}, {-1, 2}}, 2).(*smallTableau)
	tab.den = 2
	if _, err := tab.pivot(1, 0); !errors.Is(err, errInexact) {
		t.Fatalf("pivot with an inexact numerator: err = %v, want errInexact", err)
	}
	// The same pivot on the intact tableau divides exactly.
	tab = newTableau([][]int64{{1, -1}, {-1, 2}}, 2).(*smallTableau)
	if _, err := tab.pivot(1, 0); err != nil {
		t.Fatalf("pivot on the intact tableau: %v", err)
	}
}

// TestSolveStrictBitLimit pins the big.Int path's resource guard: dense
// 62-bit coefficients over 20 variables make the tableau's minors outgrow
// maxCellBits within a few dozen pivots, and the solve must stop with
// errBitLimit rather than keep growing.
func TestSolveStrictBitLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]int64, 30)
	for i := range rows {
		rows[i] = make([]int64, 20)
		for j := range rows[i] {
			rows[i][j] = rng.Int63() - 1<<62
		}
	}
	if _, _, pivots, err := solveStrict(context.Background(), rows, 20, 20000); err != errBitLimit {
		t.Fatalf("err = %v after %d pivots, want errBitLimit", err, pivots)
	}
}
