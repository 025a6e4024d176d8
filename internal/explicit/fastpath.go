package explicit

import "paramring/internal/core"

// The compiled fast path: for symmetric instances (no distinguished
// processes), successor generation does not need to re-evaluate guards —
// the protocol's compiled local transition table maps each local state code
// directly to its new own-variable values. Successors then reduce to a
// window-code lookup plus a stride add per process, which is what makes
// the K-sweeps of the cost experiments (T1) tractable at K=12.
//
// The table is stored flat, CSR-style: one offsets array and one packed
// moves array, plus a bit-per-code enabled set. The former [][]int layout
// paid a pointer dereference (and a likely cache miss) per process per
// state; the flat layout makes a successor lookup two sequential reads
// from arrays that fit in L1/L2 for every protocol in the zoo (d^W <=
// 2^20 codes, and in practice a few dozen). Scan loops keep the window
// codes current via the odometer (odometer.go), so the steady-state inner
// loop touches no division at all.
//
// The table is built lazily on first use and shared by all queries. The
// symbolic path remains in use when WithProcessActions breaks symmetry.

// localTable is the compiled transition relation over local state codes in
// compressed sparse row form: the new own values of code s are
// moves[off[s]:off[s+1]], in the same deterministic order the compiled
// System emits (sorted by destination code), and enabled holds one bit
// per code with at least one outgoing transition.
type localTable struct {
	off     []uint32
	moves   []int32
	enabled bitset
}

// buildLocalTable compiles the protocol's transition relation into the
// flat lookup table.
func buildLocalTable(p *core.Protocol) *localTable {
	sys := p.Compile()
	n := sys.N()
	total := 0
	for s := 0; s < n; s++ {
		total += len(sys.Succ[s])
	}
	tbl := &localTable{
		off:     make([]uint32, n+1),
		moves:   make([]int32, 0, total),
		enabled: newBitset(uint64(n)),
	}
	for s := 0; s < n; s++ {
		tbl.off[s] = uint32(len(tbl.moves))
		for _, dst := range sys.Succ[s] {
			tbl.moves = append(tbl.moves, int32(sys.OwnValue(dst)))
		}
		if len(sys.Succ[s]) > 0 {
			tbl.enabled.Set(uint64(s))
		}
	}
	tbl.off[n] = uint32(len(tbl.moves))
	return tbl
}

// fast returns the compiled table, building it on first use; nil when the
// instance has distinguished processes (the table cannot represent them).
// The build is guarded by a sync.Once so that the parallel checker's
// workers can race to the first successor query safely.
func (in *Instance) fast() *localTable {
	if len(in.distinguished) > 0 {
		return nil
	}
	in.tableOnce.Do(func() { in.table = buildLocalTable(in.p) })
	return in.table
}

// emitFast appends the successors of the state with the given code, decoded
// valuation and per-process window codes: for each enabled process, the flat
// moves row indexed by its window code, turned into global codes through the
// precomputed stride table (stride[r*d+v] == v*d^r). Callers supply codes
// either incrementally (odometer scans) or via the rolling windowCodes fill
// (random access); emitFast itself re-encodes nothing. The element type is
// uint64 for successor sets and uint32 for the CSR edges of CheckRings.
func emitFast[E uint32 | uint64](in *Instance, tbl *localTable, id uint64, vals []int, codes []int32, out []E) []E {
	d := in.d
	for r := 0; r < in.k; r++ {
		code := uint64(codes[r])
		if !tbl.enabled.Get(code) {
			continue
		}
		stride := in.stride[r*d : r*d+d]
		base := id - stride[vals[r]]
		for _, nv := range tbl.moves[tbl.off[code]:tbl.off[code+1]] {
			out = append(out, E(base+stride[nv]))
		}
	}
	return out
}

// deadlocked reports whether no window code in codes is enabled: the
// global deadlock test, one enabled bit per process.
func (t *localTable) deadlocked(codes []int32) bool {
	for _, c := range codes {
		if t.enabled.Get(uint64(c)) {
			return false
		}
	}
	return true
}

// successorsFast generates successors via the compiled table, appending
// them to out (typically a scratch buffer recycled across a whole-space
// scan, so the steady state allocates nothing). Returns (nil, false) when
// the fast path is unavailable.
func (in *Instance) successorsFast(id uint64, sc *scratch, out []uint64) ([]uint64, bool) {
	tbl := in.fast()
	if tbl == nil {
		return nil, false
	}
	in.DecodeInto(id, sc.vals)
	in.windowCodes(sc.vals, sc.codes)
	return emitFast(in, tbl, id, sc.vals, sc.codes, out), true
}

// enabledCountFast counts enabled processes via the compiled table.
func (in *Instance) enabledCountFast(id uint64, sc *scratch) (int, bool) {
	tbl := in.fast()
	if tbl == nil {
		return 0, false
	}
	in.DecodeInto(id, sc.vals)
	in.windowCodes(sc.vals, sc.codes)
	count := 0
	for r := 0; r < in.k; r++ {
		if tbl.enabled.Get(uint64(sc.codes[r])) {
			count++
		}
	}
	return count, true
}
