package explicit

import (
	"context"
	"sync"
)

// Rotation orbits. CheckRings answers its two questions on the quotient of
// the ring's state space by rotation (see symmetry.go for why that is
// sound). Both of its sweeps visit one representative per orbit with
// repCursor, which needs no table; the livelock sweep also needs, per
// (domain, K), a dense number for the orbit of every successor it emits,
// which the orbit table holds. The table depends on nothing but d and K,
// so small ones are built once per process and shared read-only by every
// protocol; larger ones are built per call and dropped.

// orbitTable numbers the rotation orbits of the d^K states of a ring of K
// processes. Orbits are numbered in ascending order of their
// representatives, the smallest code among a state's K rotations (what
// Instance.Canonical returns). A table is immutable once built.
type orbitTable struct {
	orbit []uint32 // orbit[code]: the number of code's orbit
	reps  []uint32 // reps[i]: the representative of orbit i, ascending
}

// The process-wide cache holds at most orbitCacheBytes of tables, whatever
// domains and ring sizes are checked. A table larger than
// orbitCacheMaxTable is never cached; adding one that would overflow the
// bound evicts the oldest tables first. 2 MiB covers every ring of up to
// 2^18 states (d=4 up to K=9, d=8 up to K=6, d=12 up to K=5), and the
// bound keeps at least eight such tables.
const (
	orbitCacheBytes    = 16 << 20
	orbitCacheMaxTable = 2 << 20
)

type orbitKey struct{ d, k int }

var orbitCache struct {
	sync.Mutex
	tables map[orbitKey]*orbitTable
	order  []orbitKey // cached keys, oldest first
	bytes  uint64
}

// rotate returns the code of the state rotated by one position, process i
// taking the value of process i+1 (cyclically), where top is d^(K-1).
func rotate(code, d, top uint64) uint64 {
	return code/d + code%d*top
}

// bytes is the table's heap footprint.
func (t *orbitTable) bytes() uint64 {
	return 4 * uint64(cap(t.orbit)+cap(t.reps))
}

// orbitsFor returns the orbit table of the n = d^K states of a ring of K
// processes: the cached one when there is one, else a new one, which is
// cached when it is small enough. n must not exceed math.MaxUint32. A
// done ctx stops a build with ctx.Err().
func orbitsFor(ctx context.Context, d, k int, n uint64) (*orbitTable, error) {
	key := orbitKey{d, k}
	orbitCache.Lock()
	t := orbitCache.tables[key]
	orbitCache.Unlock()
	if t != nil {
		return t, nil
	}
	t, err := buildOrbitTable(ctx, d, k, n)
	if err != nil || t.bytes() > orbitCacheMaxTable {
		return t, err
	}
	orbitCache.Lock()
	defer orbitCache.Unlock()
	if cached := orbitCache.tables[key]; cached != nil {
		return cached, nil // a concurrent call built it too
	}
	if orbitCache.tables == nil {
		orbitCache.tables = make(map[orbitKey]*orbitTable)
	}
	for orbitCache.bytes+t.bytes() > orbitCacheBytes {
		old := orbitCache.order[0]
		orbitCache.order = orbitCache.order[1:]
		orbitCache.bytes -= orbitCache.tables[old].bytes()
		delete(orbitCache.tables, old)
	}
	orbitCache.tables[key] = t
	orbitCache.order = append(orbitCache.order, key)
	orbitCache.bytes += t.bytes()
	return t, nil
}

// DropOrbitTables empties the process-wide orbit-table cache, so the next
// check of each ring size builds its table again. It changes no answer;
// the lrbench ablation row calls it to measure what the cache saves.
func DropOrbitTables() {
	orbitCache.Lock()
	defer orbitCache.Unlock()
	orbitCache.tables, orbitCache.order, orbitCache.bytes = nil, nil, 0
}

// buildOrbitTable numbers the orbits in one ascending pass: the first code
// met of each orbit is its smallest, so it becomes the representative of
// the next number, which its K-1 rotations then receive. The all-zero
// state is alone in orbit 0, so past code 0 a zero entry means "not yet
// numbered" and the table needs no initial fill. Each orbit's rotations
// are computed once, so the pass costs about d^K rotations in all.
func buildOrbitTable(ctx context.Context, d, k int, n uint64) (*orbitTable, error) {
	t := &orbitTable{
		orbit: make([]uint32, n),
		reps:  make([]uint32, 1, necklaces(d, k)),
	}
	ud, top := uint64(d), n/uint64(d)
	for code := uint64(1); code < n; code++ {
		if code&cancelCheckMask == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if t.orbit[code] != 0 {
			continue
		}
		i := uint32(len(t.reps))
		t.reps = append(t.reps, uint32(code))
		t.orbit[code] = i
		for r, cur := 1, code; r < k; r++ {
			cur = rotate(cur, ud, top)
			t.orbit[cur] = i
		}
	}
	return t, nil
}

// repCursor visits the orbit representatives of a ring in ascending order
// without a table, keeping an odometer on the current one. Read from its
// most significant position, a state is the string a[j] = vals[K-1-j],
// and ascending codes are lexicographic order of these strings, so a
// representative is a necklace: the lexicographically least of its
// rotations. The cursor runs the Fredricksen–Kessler–Maiorana algorithm,
// which visits the prenecklaces (the prefixes of necklaces) in
// lexicographic order with a constant amortized number of digit changes
// each; a prenecklace whose longest Lyndon prefix has length p is a
// necklace exactly when p divides K. Prenecklaces outnumber necklaces by
// a small factor: about 2 for d = 2, less for larger domains.
type repCursor struct {
	od *odometer
	a  []int
	p  int // length of the longest Lyndon prefix of a
}

// newRepCursor returns a cursor for this instance's ring, positioned
// nowhere; call seek before use.
func (in *Instance) newRepCursor() *repCursor {
	return &repCursor{od: in.newOdometer(), a: make([]int, in.k)}
}

// seek positions the cursor at the smallest representative not below
// code, and reports false when there is none.
func (c *repCursor) seek(code uint64) bool {
	in := c.od.in
	for j := in.k - 1; j >= 0; j-- {
		c.a[j] = int(code % uint64(in.d))
		code /= uint64(in.d)
	}
	// The smallest prenecklace not below a: a itself, or, at the first
	// position that breaks the period of the prefix before it, that
	// prefix extended periodically, which raises the breaking digit.
	c.p = 1
	for i := 1; i < in.k; i++ {
		if c.a[i] > c.a[i-c.p] {
			c.p = i + 1
		} else if c.a[i] < c.a[i-c.p] {
			for ; i < in.k; i++ {
				c.a[i] = c.a[i-c.p]
			}
		}
	}
	var id uint64
	for _, v := range c.a {
		id = id*uint64(in.d) + uint64(v)
	}
	c.od.reset(id)
	return in.k%c.p == 0 || c.next()
}

// next advances the cursor to the next representative, and reports false
// when there is none.
func (c *repCursor) next() bool {
	in := c.od.in
	for {
		j := in.k - 1
		for j >= 0 && c.a[j] == in.d-1 {
			j--
		}
		if j < 0 {
			return false
		}
		c.set(j, c.a[j]+1)
		for i := j + 1; i < in.k; i++ {
			c.set(i, c.a[i-j-1])
		}
		if c.p = j + 1; in.k%c.p == 0 {
			return true
		}
	}
}

// set writes v at string position j, ring position K-1-j, through the
// odometer.
func (c *repCursor) set(j, v int) {
	if c.a[j] == v {
		return
	}
	r := len(c.a) - 1 - j
	po := c.od.in.po[r]
	c.od.id = c.od.id - uint64(c.a[j])*po + uint64(v)*po
	c.a[j] = v
	c.od.setDigit(r, v)
}

// necklaces returns the number of rotation orbits of the d^k states of a
// ring of k processes: one per aperiodic orbit of each length p dividing
// k, since an orbit of k states is aperiodic and a smaller one repeats an
// aperiodic word of length p.
func necklaces(d, k int) uint64 {
	var m uint64
	for p := 1; p <= k; p++ {
		if k%p == 0 {
			m += lyndon(d, p)
		}
	}
	return m
}

// lyndon returns the number of aperiodic rotation orbits (orbits of k
// distinct states) of a ring of k processes over d values, from
// d^k = Σ_{p|k} p·lyndon(d, p), for d^k that EstimateStates accepts.
func lyndon(d, k int) uint64 {
	n, _ := EstimateStates(d, k)
	for p := 1; p < k; p++ {
		if k%p == 0 {
			n -= uint64(p) * lyndon(d, p)
		}
	}
	return n / uint64(k)
}
