package explicit

import (
	"context"
	"errors"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"paramring/internal/protogen"
)

// TestOrbitTable pins the orbit table against Instance.Canonical for
// d = 2..4 and K = 2..8: every code maps to the orbit of its canonical
// representative, the representatives are exactly the fixed points of
// Canonical in ascending order, and the orbit count equals OrbitCount and
// the necklace count (1/K)·Σ_{j|K} φ(j)·d^(K/j); the table-free cursor
// visits the same representatives. It also pins the fact
// that makes a quotient self-loop a real one: a state one move (one
// changed position) away from a rotation of itself is that rotation.
func TestOrbitTable(t *testing.T) {
	ctx := context.Background()
	for d := 2; d <= 4; d++ {
		p := protogen.Random(rand.New(rand.NewSource(int64(d))), protogen.Options{Domain: d})
		for k := 2; k <= 8; k++ {
			in := MustNewInstance(p, k, WithWorkers(1))
			ot, err := buildOrbitTable(ctx, d, k, in.NumStates())
			if err != nil {
				t.Fatal(err)
			}
			var reps []uint32
			for code := uint64(0); code < in.NumStates(); code++ {
				c := in.Canonical(code)
				if got := uint64(ot.reps[ot.orbit[code]]); got != c {
					t.Fatalf("d=%d K=%d: code %d is in the orbit of %d, Canonical says %d", d, k, code, got, c)
				}
				if c == code {
					reps = append(reps, uint32(code))
				}
			}
			if len(reps) != len(ot.reps) {
				t.Fatalf("d=%d K=%d: %d representatives, %d fixed points of Canonical", d, k, len(ot.reps), len(reps))
			}
			for i := range reps {
				if reps[i] != ot.reps[i] {
					t.Fatalf("d=%d K=%d: representative %d is %d, fixed point %d", d, k, i, ot.reps[i], reps[i])
				}
			}
			// The cursor visits the same representatives without the table,
			// with its odometer on each, and seek lands on the smallest one
			// not below any code.
			c := in.newRepCursor()
			i := 0
			for ok := c.seek(0); ok; ok = c.next() {
				if i >= len(ot.reps) || c.od.id != uint64(ot.reps[i]) {
					t.Fatalf("d=%d K=%d: cursor visit %d is %d, representative %v", d, k, i, c.od.id, ot.reps[min(i, len(ot.reps)-1)])
				}
				ref := in.newOdometer()
				ref.reset(c.od.id)
				if !slices.Equal(ref.vals, c.od.vals) || !slices.Equal(ref.codes, c.od.codes) {
					t.Fatalf("d=%d K=%d: cursor odometer at %d holds %v %v, reset gives %v %v", d, k, c.od.id, c.od.vals, c.od.codes, ref.vals, ref.codes)
				}
				i++
			}
			if i != len(ot.reps) {
				t.Fatalf("d=%d K=%d: cursor visited %d of %d representatives", d, k, i, len(ot.reps))
			}
			for code := uint64(0); code < in.NumStates(); code += 1 + code%7 {
				j, _ := slices.BinarySearch(ot.reps, uint32(code))
				ok := c.seek(code)
				if ok != (j < len(ot.reps)) || ok && c.od.id != uint64(ot.reps[j]) {
					t.Fatalf("d=%d K=%d: seek(%d) = %v at %d", d, k, code, ok, c.od.id)
				}
			}

			want := necklaceCount(d, k)
			if m := uint64(len(ot.reps)); m != in.OrbitCount() || m != want || necklaces(d, k) != want {
				t.Fatalf("d=%d K=%d: table %d orbits, OrbitCount %d, necklaces %d, Burnside %d",
					d, k, m, in.OrbitCount(), necklaces(d, k), want)
			}
			if d > 3 || k > 6 {
				continue
			}
			for code := uint64(0); code < in.NumStates(); code++ {
				for r := 0; r < k; r++ {
					for v := uint64(0); v < uint64(d); v++ {
						old := code / in.po[r] % uint64(d)
						moved := code - old*in.po[r] + v*in.po[r]
						if moved != code && ot.orbit[moved] == ot.orbit[code] {
							t.Fatalf("d=%d K=%d: one move takes %d to its rotation %d", d, k, code, moved)
						}
					}
				}
			}
		}
	}
}

// necklaceCount is Burnside's count of the rotation orbits of d^k ring
// states, (1/k)·Σ_{j|k} φ(j)·d^(k/j), with φ by trial division.
func necklaceCount(d, k int) uint64 {
	var sum uint64
	for j := 1; j <= k; j++ {
		if k%j != 0 {
			continue
		}
		phi := 0
		for i := 1; i <= j; i++ {
			if gcd(i, j) == 1 {
				phi++
			}
		}
		pow := uint64(1)
		for i := 0; i < k/j; i++ {
			pow *= uint64(d)
		}
		sum += uint64(phi) * pow
	}
	return sum / uint64(k)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// TestOrbitCacheBounded: however many domains are checked, the cache never
// holds more than orbitCacheBytes, never holds a table over
// orbitCacheMaxTable, evicts the oldest tables first, and serves a cached
// table on a hit.
func TestOrbitCacheBounded(t *testing.T) {
	DropOrbitTables()
	defer DropOrbitTables()
	// snapshot copies the cache's state, so that no assertion runs under
	// its lock.
	snapshot := func() (order []orbitKey, tables map[orbitKey]*orbitTable, bytes uint64) {
		orbitCache.Lock()
		defer orbitCache.Unlock()
		return slices.Clone(orbitCache.order), maps.Clone(orbitCache.tables), orbitCache.bytes
	}
	ctx := context.Background()
	var keys []orbitKey
	for d := 2; d <= 80; d++ {
		// The largest ring of d values with at most 2^18 states: tables of
		// 0.5–1.5 MiB, about sixty of them, so the bound is passed many times.
		k, n := 1, uint64(d)
		for n*uint64(d) <= 1<<18 {
			k, n = k+1, n*uint64(d)
		}
		if k < 2 {
			continue
		}
		ot, err := orbitsFor(ctx, d, k, n)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, orbitKey{d, k})
		order, tables, bytes := snapshot()
		var sum uint64
		for _, cached := range tables {
			sum += cached.bytes()
			if cached.bytes() > orbitCacheMaxTable {
				t.Fatalf("cached a %d-byte table", cached.bytes())
			}
		}
		if sum != bytes || sum > orbitCacheBytes || len(order) != len(tables) {
			t.Fatalf("after d=%d K=%d: %d tables of %d bytes, accounted %d, bound %d",
				d, k, len(tables), sum, bytes, orbitCacheBytes)
		}
		if tables[orbitKey{d, k}] != ot {
			t.Fatalf("d=%d K=%d: a new cacheable table was not cached", d, k)
		}
		if again, _ := orbitsFor(ctx, d, k, n); again != ot {
			t.Fatalf("d=%d K=%d: a hit built a new table", d, k)
		}
	}
	order, _, _ := snapshot()
	if len(order) >= len(keys) {
		t.Fatalf("%d tables cached of %d built: nothing was evicted", len(order), len(keys))
	}
	// FIFO: what is left is the newest tables, in order.
	if want := keys[len(keys)-len(order):]; !slices.Equal(order, want) {
		t.Fatalf("cached tables %v, want the newest %v", order, want)
	}

	big := uint64(1) << 19 // 2 MiB of codes alone: built, never cached
	ot, err := orbitsFor(ctx, 2, 19, big)
	if err != nil || uint64(len(ot.orbit)) != big {
		t.Fatalf("K=19: %v", err)
	}
	if _, tables, _ := snapshot(); tables[orbitKey{2, 19}] != nil {
		t.Fatal("a table over orbitCacheMaxTable was cached")
	}
}

// TestOrbitTableBuildStopsWhenDone: a large build polls its context.
func TestOrbitTableBuildStopsWhenDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := orbitsFor(ctx, 2, 20, 1<<20); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled build returned %v", err)
	}
}

// TestRingFuzzSeedShapes pins what two committed FuzzCheckRingsEquivalence
// seeds exercise, so that a change to the decoder cannot quietly turn them
// into something easier.
func TestRingFuzzSeedShapes(t *testing.T) {
	seed := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzCheckRingsEquivalence", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-argument []byte seed", name)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return []byte(data)
	}

	// seed-rotation-cycle copies the left neighbour's differing value: its
	// only not-I cycle at K=3 moves a lone 1 around the ring, so the full
	// cycle passes through rotations of one state and the quotient's cycle
	// is shorter than the full graph's.
	p, _, _, err := decodeRingCase(seed("seed-rotation-cycle"))
	if err != nil {
		t.Fatal(err)
	}
	if k, err := SmallestLivelockK(context.Background(), p, 4); err != nil || k != 3 {
		t.Fatalf("seed-rotation-cycle: smallest livelocking K %d, %v; want 3", k, err)
	}
	in := MustNewInstance(p, 3)
	cycle := in.FindLivelock()
	orbits := map[uint64]bool{}
	for _, s := range cycle {
		orbits[in.Canonical(s)] = true
	}
	if len(cycle) <= len(orbits) {
		t.Fatalf("seed-rotation-cycle: cycle %v visits %d orbits; want rotations of one state on it", cycle, len(orbits))
	}

	// seed-k-below-window-livelock has window [-1,1] and livelocks at K=2,
	// where each process reads its one neighbour twice, and is sharded.
	p, maxK, workers, err := decodeRingCase(seed("seed-k-below-window-livelock"))
	if err != nil {
		t.Fatal(err)
	}
	checks, err := CheckRings(context.Background(), p, maxK, true, WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	if p.W() != 3 || !checks[0].Livelock || workers != 2 || necklaces(p.Domain(), maxK) <= 64 {
		t.Fatalf("seed-k-below-window-livelock: W=%d, K=2 %+v, workers %d, %d orbits at K=%d",
			p.W(), checks[0], workers, necklaces(p.Domain(), maxK), maxK)
	}
}

// TestOrbitEdgeBound: the workspace's edge capacity is a true bound on
// what the representatives emit, so the sweep never grows it, and the
// all-states bound it starts from is exact once K reaches the window width.
func TestOrbitEdgeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	windows := [][2]int{{-1, 0}, {-2, 0}, {-1, 1}, {0, 1}}
	for i := 0; i < 24; i++ {
		p := protogen.Random(rng, protogen.Options{
			Domain: 2 + i%3, Lo: windows[i%4][0], Hi: windows[i%4][1],
			MovePercent: 30 + 20*(i%4), Nondet: i%2 == 0,
		})
		tbl := buildLocalTable(p)
		for k := 2; k <= 6; k++ {
			in := MustNewInstance(p, k, WithWorkers(1))
			var all, reps uint64
			od := in.newOdometer()
			od.reset(0)
			var buf []uint64
			for id := uint64(0); id < in.n; id++ {
				buf = emitFast(in, tbl, id, od.vals, od.codes, buf[:0])
				all += uint64(len(buf))
				if in.Canonical(id) == id {
					reps += uint64(len(buf))
				}
				if id+1 < in.n {
					od.step()
				}
			}
			bound := tbl.edgeBound(in.n, k, in.d, p.W())
			if all > bound || (k >= p.W() && all != bound) {
				t.Fatalf("%s K=%d: %d edges, edgeBound %d", p.Name(), k, all, bound)
			}
			if ob := tbl.orbitEdgeBound(in.n, k, in.d, p.W()); reps > ob {
				t.Fatalf("%s K=%d: representatives emit %d edges, orbitEdgeBound %d", p.Name(), k, reps, ob)
			}
		}
	}
}

// TestOrbitCacheConcurrent: concurrent checks share the process-wide cache
// while it evicts and is emptied; every table handed out stays whole. Run
// it under -race.
func TestOrbitCacheConcurrent(t *testing.T) {
	defer DropOrbitTables()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				d := 2 + (g+i)%30
				k, n := 1, uint64(d)
				for n*uint64(d) <= 1<<16 {
					k, n = k+1, n*uint64(d)
				}
				if k < 2 {
					continue
				}
				if i%17 == g {
					DropOrbitTables()
				}
				ot, err := orbitsFor(ctx, d, k, n)
				if err != nil || uint64(len(ot.orbit)) != n || uint64(len(ot.reps)) != necklaces(d, k) {
					t.Errorf("d=%d K=%d: %v, a table of %d codes and %d orbits", d, k, err, len(ot.orbit), len(ot.reps))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
