// Command lrsynth runs the paper's Section 6 synthesis methodology on a
// base protocol, printing the step-by-step narrative (Resolve computation,
// candidate generation, NPL/PL search) and the synthesized protocol.
//
// Usage:
//
//	lrsynth -protocol agreement
//	lrsynth -protocol sum-not-two -all
//	lrsynth -protocol coloring3            # reproduces the paper's failure
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"paramring/internal/cli"
	"paramring/internal/explicit"
	"paramring/internal/ltg"
	"paramring/internal/synthesis"
)

func main() {
	defer cli.ExitOnPanic("lrsynth")
	name := flag.String("protocol", "", "base protocol name (agreement, coloring2, coloring3, sum-not-two, ...)")
	file := flag.String("file", "", "guarded-commands file (.gc) to synthesize from")
	all := flag.Bool("all", false, "enumerate every accepted candidate set")
	validate := flag.Int("validate", 7, "cross-validate accepted solutions with the explicit checker up to this K (0 disables)")
	workers := flag.Int("workers", 0, "parallel search workers; 0 selects GOMAXPROCS (the result is identical for any count)")
	maxAssignments := flag.Int("max-assignments", 1<<20, "abort when a Resolve set admits more candidate assignments than this")
	flag.Parse()

	if *workers < 0 {
		cli.Exit("lrsynth", 2, fmt.Errorf("-workers must be >= 0 (0 selects GOMAXPROCS), got %d", *workers))
	}
	if *maxAssignments < 1 {
		cli.Exit("lrsynth", 2, fmt.Errorf("-max-assignments must be >= 1, got %d", *maxAssignments))
	}
	p, err := cli.LoadProtocol(*name, *file)
	if err != nil {
		cli.Exit("lrsynth", 2, err)
	}

	res, err := synthesis.Synthesize(p, synthesis.Options{
		All:            *all,
		Workers:        *workers,
		MaxAssignments: *maxAssignments,
	})
	if res != nil {
		for _, s := range res.Steps {
			fmt.Println(s)
		}
		st := res.Stats
		fmt.Printf("\nsearch: %d candidate(s), %d evaluated, %d pruned in %d subtree cut(s), %d deadlock-rejected, %d worker(s)\n",
			st.Candidates, st.Evaluated, st.PrunedAssignments, st.PrunedSubtrees, st.DeadlockRejected, st.Workers)
	}
	if err != nil {
		if errors.Is(err, synthesis.ErrNoSolution) {
			fmt.Println("\nresult: FAILURE — the methodology declares failure, as the paper does for this input")
			os.Exit(1)
		}
		cli.Exit("lrsynth", 1, err)
	}

	sys := p.Compile()
	fmt.Printf("\nresult: %d accepted solution(s)\n", len(res.Accepted))
	for i, cand := range res.Accepted {
		fmt.Printf("\nsolution %d (phase %s): %s\n", i+1, cand.Phase, ltg.FormatTArcs(sys, cand.Chosen))
		fmt.Printf("  provably strongly self-stabilizing for EVERY ring size K\n")
		if *validate > 1 {
			fmt.Printf("  explicit cross-validation:")
			for k := 2; k <= *validate; k++ {
				in, err := explicit.NewInstance(cand.Protocol, k)
				if err != nil {
					cli.Exit("lrsynth", 1, err)
				}
				fmt.Printf(" K=%d:%v", k, in.CheckStrongConvergence().Converges)
			}
			fmt.Println()
		}
	}
}
