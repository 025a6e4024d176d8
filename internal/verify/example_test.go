package verify_test

import (
	"fmt"

	"paramring/internal/protocols"
	"paramring/internal/verify"
)

// One call verifies a protocol for every ring size: Theorem 4.2 for
// deadlocks, Theorem 5.14 for livelocks, and witness confirmation to tell
// real counterexamples from spurious trails.
func ExampleCheck() {
	rep, err := verify.Check(protocols.SumNotTwoSolution(), verify.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Summary())

	rep, err = verify.Check(protocols.AgreementBoth(), verify.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Summary())
	// Output:
	// deadlock-freedom (all K): proved; livelock-freedom: proved; SELF-STABILIZING FOR EVERY K
	// deadlock-freedom (all K): proved; livelock-freedom: refuted (livelock at K=3)
}
