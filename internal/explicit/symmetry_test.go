package explicit

import (
	"math/rand"
	"testing"

	"paramring/internal/protocols"
)

func TestCanonicalIsOrbitMinimum(t *testing.T) {
	in := MustNewInstance(protocols.SumNotTwoBase(), 4)
	for id := uint64(0); id < in.NumStates(); id++ {
		c := in.Canonical(id)
		// Brute-force the orbit.
		vals := in.Decode(id)
		best := id
		for r := 1; r < in.K(); r++ {
			rot := make([]int, in.K())
			for i := range rot {
				rot[i] = vals[(i+r)%in.K()]
			}
			if e := in.Encode(rot); e < best {
				best = e
			}
		}
		if c != best {
			t.Fatalf("Canonical(%d) = %d, brute force %d", id, c, best)
		}
	}
}

func TestCanonicalIdempotentAndInvariant(t *testing.T) {
	in := MustNewInstance(protocols.MatchingA(), 5)
	rng := rand.New(rand.NewSource(1))
	for probe := 0; probe < 200; probe++ {
		id := uint64(rng.Int63n(int64(in.NumStates())))
		c := in.Canonical(id)
		if in.Canonical(c) != c {
			t.Fatal("Canonical not idempotent")
		}
		if in.InI(id) != in.InI(c) {
			t.Fatal("I must be rotation-invariant")
		}
		if in.IsDeadlock(id) != in.IsDeadlock(c) {
			t.Fatal("deadlock status must be rotation-invariant")
		}
	}
}

func TestOrbitCountBounds(t *testing.T) {
	in := MustNewInstance(protocols.AgreementBase(), 6)
	orbits := in.OrbitCount()
	n := in.NumStates()
	if orbits < n/uint64(in.K()) || orbits >= n {
		t.Fatalf("orbit count %d out of bounds for %d states on K=%d", orbits, n, in.K())
	}
	// Burnside for binary necklaces of length 6: 14 orbits.
	if orbits != 14 {
		t.Fatalf("binary necklaces of length 6 = %d, want 14", orbits)
	}
}
