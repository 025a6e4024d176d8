package explicit

import "fmt"

// Rotation-symmetry reduction. Parameterized ring protocols are symmetric:
// rotating a global state by one position commutes with the transition
// relation, and the locally conjunctive predicate I is rotation-invariant.
// Strong convergence can therefore be decided on the quotient of the state
// space by the rotation group C_K, which has roughly a factor K fewer
// states:
//
//   - a global deadlock exists iff its orbit representative is deadlocked;
//   - a cycle exists in Delta_p | not-I iff the quotient graph (over orbit
//     representatives, with successor sets canonicalized) has a cycle: a
//     quotient cycle lifts to s ->* rho(s) for some rotation rho, and
//     iterating rho's finite order closes a genuine cycle in the full
//     graph; the converse projection is immediate.
//
// A move changes one position, and a state one position away from a
// rotation of itself is that rotation, so a quotient self-loop is always a
// self-loop of the full graph; quotient cycles through several orbits lift
// through the rotations. CheckRings (rings.go) decides cross-validation's
// two questions this way, over the orbit tables of orbits.go.
//
// Only symmetric instances qualify (no distinguished processes, no global
// predicate override — a custom predicate need not be rotation-invariant).

// Canonical returns the orbit representative of id: the minimal state code
// among all K rotations.
func (in *Instance) Canonical(id uint64) uint64 {
	best := id
	for r, cur := 1, id; r < in.k; r++ {
		cur = rotate(cur, uint64(in.d), in.po[in.k-1])
		best = min(best, cur)
	}
	return best
}

// symmetric reports whether the instance qualifies for symmetry reduction.
func (in *Instance) symmetric() bool {
	return len(in.distinguished) == 0 && in.globalI == nil
}

// CheckStrongConvergenceReduced decides strong convergence like
// CheckStrongConvergence, but explores only one state per rotation orbit.
// It returns an error for instances that are not rotation-symmetric.
// Witnesses are reported as representative states of the full state space.
func (in *Instance) CheckStrongConvergenceReduced() (ConvergenceReport, error) {
	if !in.symmetric() {
		return ConvergenceReport{}, fmt.Errorf("explicit: symmetry reduction requires a symmetric instance")
	}
	rep := ConvergenceReport{}

	// Pass 1: deadlocks among orbit representatives.
	reps := 0
	for id := uint64(0); id < in.n; id++ {
		if in.Canonical(id) != id {
			continue
		}
		reps++
		if !in.inI.Get(id) && in.IsDeadlock(id) {
			d := id
			rep.DeadlockWitness = &d
			rep.StatesExplored = uint64(reps)
			return rep, nil
		}
	}
	rep.StatesExplored = uint64(reps)

	// Pass 2: cycle detection on the quotient graph restricted to not-I,
	// iterative DFS with three-coloring.
	const (
		white = uint8(0)
		gray  = uint8(1)
		black = uint8(2)
	)
	color := make(map[uint64]uint8, reps)
	type frame struct {
		v    uint64
		succ []uint64
		next int
	}
	quotientSucc := func(id uint64) []uint64 {
		// Successors copies: the DFS frames retain the returned slice.
		succ := in.Successors(id)
		out := succ[:0]
		for _, s := range succ {
			c := in.Canonical(s)
			if !in.inI.Get(c) {
				out = append(out, c)
			}
		}
		return out
	}
	for root := uint64(0); root < in.n; root++ {
		if in.inI.Get(root) || in.Canonical(root) != root || color[root] != white {
			continue
		}
		stack := []frame{{v: root}}
		color[root] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.succ == nil {
				f.succ = quotientSucc(f.v)
			}
			advanced := false
			for f.next < len(f.succ) {
				w := f.succ[f.next]
				f.next++
				switch color[w] {
				case gray:
					// Quotient cycle found; lift a witness lazily: the
					// representative state is enough for reporting.
					rep.LivelockWitness = []uint64{w}
					return rep, nil
				case white:
					color[w] = gray
					stack = append(stack, frame{v: w})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	rep.Converges = true
	return rep, nil
}

// OrbitCount returns the number of rotation orbits (the quotient size).
func (in *Instance) OrbitCount() uint64 {
	var count uint64
	for id := uint64(0); id < in.n; id++ {
		if in.Canonical(id) == id {
			count++
		}
	}
	return count
}
