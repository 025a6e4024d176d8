package graph

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// decodeCycleCase reads a fuzz input as a digraph, a cycle limit and a vertex
// mark: n = 1 + data[0]%12 vertices, limit = 1 + (data[1]<<8 | data[2])%300,
// the marked vertices are the bits of data[3] | data[4]<<8, and every
// following byte pair (u, v) adds the edge u%n -> v%n. Missing header bytes
// read as zero.
func decodeCycleCase(data []byte) (g *Digraph, limit int, marks uint16) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 1 + int(at(0))%12
	limit = 1 + (int(at(1))<<8|int(at(2)))%300
	marks = uint16(at(3)) | uint16(at(4))<<8
	g = New(n)
	for i := 5; i+1 < len(data); i += 2 {
		g.AddEdge(int(data[i])%n, int(data[i+1])%n)
	}
	return g, limit, marks
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// matchCycleReference fails t unless ElementaryCycles and CyclesThroughAny
// return exactly the reference's cycles, in its order, with its error.
func matchCycleReference(t *testing.T, g *Digraph, limit int, marks uint16) {
	t.Helper()
	want, wantErr := refElementaryCycles(g, limit)
	got, err := g.ElementaryCycles(limit)
	if errText(err) != errText(wantErr) || errors.Is(err, ErrCycleLimit) != errors.Is(wantErr, ErrCycleLimit) ||
		!reflect.DeepEqual(got, want) {
		t.Fatalf("ElementaryCycles(%d) on %v:\ngot  %v, %v\nwant %v, %v", limit, g.Edges(), got, err, want, wantErr)
	}
	mark := func(v int) bool { return marks&(1<<v) != 0 }
	want, wantErr = refCyclesThroughAny(g, mark, limit)
	got, err = g.CyclesThroughAny(mark, limit)
	if errText(err) != errText(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("CyclesThroughAny(marks %b, %d) on %v:\ngot  %v, %v\nwant %v, %v",
			marks, limit, g.Edges(), got, err, want, wantErr)
	}
}

// TestElementaryCyclesMatchReference holds the streaming walk to the
// reference implementation on random digraphs of up to 18 vertices and
// densities from sparse to nearly complete, at caps small enough to stop the
// walk inside a start vertex, and with no cap on graphs small enough to
// enumerate in full.
func TestElementaryCyclesMatchReference(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	rng := rand.New(rand.NewSource(22))
	capped := 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(18)
		density := []float64{0.05, 0.15, 0.3, 0.6, 0.9}[rng.Intn(5)]
		g := New(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v && rng.Intn(3) != 0 {
					continue
				}
				if rng.Float64() < density {
					g.AddEdge(u, v)
				}
			}
		}
		marks := uint16(rng.Intn(1 << 16))
		limits := []int{1, 5, 50, 256, 1000}
		if n <= 7 {
			limits = append(limits, 0)
		}
		for _, limit := range limits {
			matchCycleReference(t, g, limit, marks)
		}
		if _, err := g.ElementaryCycles(5); err != nil {
			capped++
		}
	}
	if capped == 0 {
		t.Fatal("no trial reached the cycle cap")
	}
}

// FuzzElementaryCyclesEquivalence holds the streaming walk to the reference
// implementation on fuzzer-decoded digraphs (see decodeCycleCase).
func FuzzElementaryCyclesEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, limit, marks := decodeCycleCase(data)
		matchCycleReference(t, g, limit, marks)
	})
}

// cycleSeedPaths names the committed FuzzElementaryCyclesEquivalence seeds
// and the case each must exercise; walk is every cycle in visit order.
var cycleSeedPaths = map[string]func(g *Digraph, limit int, marks uint16, walk [][]int) bool{
	// A one-vertex cycle.
	"seed-self-loop": func(g *Digraph, limit int, marks uint16, walk [][]int) bool {
		for _, c := range walk {
			if len(c) == 1 {
				return len(walk) <= limit
			}
		}
		return false
	},
	// The cap stops the walk between two cycles of the same start vertex.
	"seed-cap-mid-start": func(g *Digraph, limit int, marks uint16, walk [][]int) bool {
		return len(walk) > limit && walk[limit-1][0] == walk[limit][0]
	},
	// Cycles exist, but a marked vertex lies on none of them.
	"seed-mark-off-cycle": func(g *Digraph, limit int, marks uint16, walk [][]int) bool {
		on := g.VertexOnCycle()
		for v := 0; v < g.N(); v++ {
			if marks&(1<<v) != 0 && !on[v] {
				return len(walk) > 0 && len(walk) <= limit
			}
		}
		return false
	},
	// The complete digraph on five vertices: 84 cycles, under the cap.
	"seed-k5": func(g *Digraph, limit int, marks uint16, walk [][]int) bool {
		return g.N() == 5 && g.M() == 20 && len(walk) == 84 && limit >= 84
	},
	// One cycle through every vertex.
	"seed-hamiltonian": func(g *Digraph, limit int, marks uint16, walk [][]int) bool {
		return g.N() == 12 && len(walk) == 1 && len(walk[0]) == 12
	},
}

// TestCycleFuzzSeedPaths pins that every committed
// FuzzElementaryCyclesEquivalence seed still decodes to the case its name
// promises, so the seed replay keeps covering self-loops, a cap inside one
// start vertex, an off-cycle mark, a dense graph and one long cycle.
func TestCycleFuzzSeedPaths(t *testing.T) {
	for name, ok := range cycleSeedPaths {
		data := readFuzzSeed(t, filepath.Join("testdata", "fuzz", "FuzzElementaryCyclesEquivalence", name))
		g, limit, marks := decodeCycleCase(data)
		var walk [][]int
		if err := g.VisitElementaryCycles(0, func(c []int) {
			walk = append(walk, append([]int(nil), c...))
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ok(g, limit, marks, walk) {
			t.Errorf("%s: edges %v, limit %d, marks %b: %d cycles %v", name, g.Edges(), limit, marks, len(walk), walk)
		}
	}
}

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

// TestVisitElementaryCyclesOrderAndCap pins the visit contract the callers
// rely on: cycles arrive grouped by their smallest vertex, rotated to start
// there, and a cap of limit hands visit exactly the first limit cycles of the
// uncapped walk before the wrapped ErrCycleLimit.
func TestVisitElementaryCyclesOrderAndCap(t *testing.T) {
	g := New(5)
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			if u != v {
				g.AddEdge(u, v)
			}
		}
	}
	var all [][]int
	if err := g.VisitElementaryCycles(0, func(c []int) {
		all = append(all, append([]int(nil), c...))
	}); err != nil {
		t.Fatal(err)
	}
	if len(all) != 84 {
		t.Fatalf("K5: %d cycles, want 84", len(all))
	}
	for i, c := range all {
		for _, v := range c[1:] {
			if v <= c[0] {
				t.Fatalf("cycle %d = %v does not start at its smallest vertex", i, c)
			}
		}
		if i > 0 && c[0] < all[i-1][0] {
			t.Fatalf("cycle %d = %v follows %v: start vertices out of order", i, c, all[i-1])
		}
	}
	for _, limit := range []int{1, 30, 83, 84} {
		var got [][]int
		err := g.VisitElementaryCycles(limit, func(c []int) {
			got = append(got, append([]int(nil), c...))
		})
		if wantErr := limit < len(all); errors.Is(err, ErrCycleLimit) != wantErr {
			t.Fatalf("limit %d: err = %v", limit, err)
		}
		if !reflect.DeepEqual(got, all[:limit]) {
			t.Fatalf("limit %d: visited %v, want the walk's first %d cycles", limit, got, limit)
		}
	}
}
