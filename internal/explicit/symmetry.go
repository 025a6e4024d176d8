package explicit

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

// OrbitCount returns the number of rotation orbits (the quotient size).
func (in *Instance) OrbitCount() uint64 {
	return necklaces(in.d, in.k)
}
