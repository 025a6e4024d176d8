// Command lrverify runs the paper's local-reasoning checks on a protocol
// from the zoo: Theorem 4.2 (deadlock-freedom for every ring size K) and
// Theorem 5.14 (livelock-freedom for every K on unidirectional rings),
// entirely in the local state space of the representative process — plus
// the invariant lane (trap/structural-invariant certificates, package
// invariant) and the explicit per-K oracle, selected with -lanes.
//
// Usage:
//
//	lrverify -protocol agreement-t01
//	lrverify -protocol matchingB            # prints the deadlock cycles
//	lrverify -protocol matchingA -xk 7      # explicit oracle at K=2..7
//	lrverify -protocol mis -lanes theorem,invariant,explicit
//	lrverify -protocol matchingA -lanes theorem   # theorems only
//	lrverify -list
//
// Exit codes:
//
//	0 — every property settled conclusively (proved or refuted), lanes agree
//	1 — runtime failure
//	2 — usage/input error
//	3 — at least one property inconclusive in every lane that ran
//	4 — cross-lane disagreement (a tool bug, never a protocol property)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"paramring/internal/cli"
	"paramring/internal/core"
	"paramring/internal/explicit"
	"paramring/internal/ltg"
	"paramring/internal/rcg"
	"paramring/internal/trace"
	"paramring/internal/verify"
)

func main() {
	defer cli.ExitOnPanic("lrverify")
	name := flag.String("protocol", "", "protocol name (see -list)")
	file := flag.String("file", "", "guarded-commands file (.gc) to verify instead of a zoo protocol")
	list := flag.Bool("list", false, "list available protocols")
	maxT := flag.Int("max-tarcs", 16, "exact livelock search limit (2^n subsets)")
	explain := flag.Bool("explain", false, "print the full pseudo-livelock/trail diagnosis")
	lanes := flag.String("lanes", "theorem,invariant",
		"comma-separated verification lanes: theorem (always on), invariant (symbolic certificates), explicit (per-K oracle up to -xk, default 6)")
	xk := flag.Int("xk", 0, "cross-validate with the explicit-state oracle for every ring size 2..xk (implies the explicit lane)")
	workers := flag.Int("workers", 0, "explicit-engine worker count for the explicit lane (0 = GOMAXPROCS)")
	maxStates := flag.Uint64("max-states", 0, "explicit-engine state-count guard for the explicit lane (0 = engine default of 1<<28)")
	flag.Parse()

	if *list {
		fmt.Println("available protocols:", cli.ZooNames())
		return
	}
	laneSet, err := parseLanes(*lanes)
	if err != nil {
		cli.Exit("lrverify", 2, err)
	}
	if *xk > 1 {
		laneSet["explicit"] = true
	}
	xval := 0
	if laneSet["explicit"] {
		xval = *xk
		if xval <= 1 {
			xval = 6
		}
	}
	p, err := cli.LoadProtocol(*name, *file)
	if err != nil {
		cli.Exit("lrverify", 2, err)
	}

	sys := p.Compile()
	lo, hi := p.Window()
	fmt.Printf("protocol %s: domain %d, window [%d,%d], %d local states, %d local transitions\n",
		p.Name(), p.Domain(), lo, hi, sys.N(), len(sys.Trans))
	fmt.Printf("unidirectional: %v, self-disabling: %v\n", p.Unidirectional(), sys.IsSelfDisabling())

	rep, err := verify.Check(p, verify.Options{
		Check:             ltg.CheckOptions{MaxTArcs: *maxT},
		Invariant:         laneSet["invariant"],
		CrossValidateMaxK: xval,
		Workers:           *workers,
		MaxStates:         *maxStates,
	})
	if err != nil {
		cli.Exit("lrverify", 1, err)
	}

	printTheorem42(sys)
	printTheorem514(p, sys, rep, *maxT, *explain)
	if laneSet["invariant"] {
		printInvariantLane(rep)
	}
	if rep.SelfStabilizing {
		fmt.Println("\n=> strongly self-stabilizing for EVERY ring size K (Proposition 2.1)")
	}
	if xval > 1 {
		if err := crossValidate(p, xval, *workers, *maxStates); err != nil {
			cli.Exit("lrverify", 1, err)
		}
	}
	printLaneTable(rep, laneSet, xval)

	if len(rep.Disagreements) > 0 {
		fmt.Println("\nLANE DISAGREEMENT (tool bug, verdicts untrustworthy):")
		for _, d := range rep.Disagreements {
			fmt.Printf("  %s\n", d)
		}
	}
	if code := cli.VerdictExitCode(rep); code != 0 {
		switch code {
		case 3:
			fmt.Println("\nverdict: inconclusive in every lane that ran (exit 3)")
		case 4:
			fmt.Println("\nverdict: lane disagreement (exit 4)")
		}
		os.Exit(code)
	}
}

// parseLanes validates the -lanes selector. The theorem lane is the
// backbone of the facade and cannot be switched off.
func parseLanes(s string) (map[string]bool, error) {
	set := map[string]bool{}
	for _, l := range strings.Split(s, ",") {
		l = strings.TrimSpace(l)
		if l == "" {
			continue
		}
		switch l {
		case "theorem", "invariant", "explicit":
			set[l] = true
		default:
			return nil, fmt.Errorf("unknown lane %q (available: theorem, invariant, explicit)", l)
		}
	}
	if !set["theorem"] {
		return nil, fmt.Errorf("the theorem lane cannot be disabled (got -lanes %q)", s)
	}
	return set, nil
}

func printTheorem42(sys *core.System) {
	r := rcg.Build(sys)
	// The verdict is SCC-based; the only error is the witness cap, under
	// which the cycles enumerated so far are listed.
	dl, _ := r.CheckDeadlockFreedom(256)
	fmt.Printf("\nTheorem 4.2 (deadlock-freedom for every K): %v\n", dl.Free)
	fmt.Printf("  local deadlocks: %d (%d illegitimate)\n", len(dl.LocalDeadlocks), len(dl.IllegitimateDeadlocks))
	for _, c := range dl.BadCycles {
		fmt.Printf("  illegitimate deadlock cycle (ring sizes %d, 2*%d, ...): %s\n", len(c), len(c), r.FormatCycle(c))
	}
	if !dl.Free {
		sizes := r.DeadlockRingSizes(2, 16)
		fmt.Print("  deadlocking ring sizes up to 16:")
		for k := 2; k <= 16; k++ {
			if sizes[k] {
				fmt.Printf(" %d", k)
			}
		}
		fmt.Println()
		fmt.Print("  illegitimate deadlock counts:")
		for _, k := range []int{4, 6, 8, 16, 32} {
			if c, err := r.CountIllegitimateDeadlocks(k); err == nil {
				fmt.Printf(" K=%d:%s", k, c)
			}
		}
		fmt.Println()
	}
	fmt.Print("  |I(K)| (transfer matrix):")
	for _, k := range []int{4, 8, 16, 64} {
		if c, err := r.CountLegitimate(k); err == nil {
			fmt.Printf(" K=%d:%s", k, c)
		}
	}
	fmt.Println()
}

func printTheorem514(p *core.Protocol, sys *core.System, rep *verify.Report, maxT int, explain bool) {
	if rep.LivelockSkipped != "" {
		fmt.Printf("\nTheorem 5.14 (livelock-freedom): not applicable: %v\n", rep.LivelockSkipped)
		return
	}
	ll := rep.LivelockDetail
	scope := "every K"
	if ll.ContiguousOnly {
		scope = "contiguous livelocks only (bidirectional ring)"
	}
	fmt.Printf("\nTheorem 5.14 (livelock-freedom, %s): %v\n", scope, ll.Verdict)
	fmt.Printf("  %s\n", ll.Reason)
	if ll.Witness != nil {
		fmt.Printf("  witness t-arcs: %s\n", ltg.FormatTArcs(sys, ll.Witness.TArcs))
		if rep.LivelockTheorem == verify.Refuted {
			fmt.Printf("  witness CONFIRMED: real livelock at K=%d\n", rep.LivelockWitnessK)
		} else {
			fmt.Println("  witness not reconstructible for K<=7 (possibly spurious — Theorem 5.14 is sufficient, not necessary)")
		}
	}
	if explain {
		if d, err := ltg.Diagnose(p, ltg.CheckOptions{MaxTArcs: maxT}); err == nil {
			fmt.Println("\ndiagnosis:")
			fmt.Print(d.Summary(sys))
		} else {
			fmt.Printf("\ndiagnosis unavailable: %v\n", err)
		}
	}
}

func printInvariantLane(rep *verify.Report) {
	if rep.InvariantSkipped != "" {
		fmt.Printf("\ninvariant lane: skipped: %s\n", rep.InvariantSkipped)
		return
	}
	fmt.Printf("\ninvariant lane (certified, all K): deadlock %v, livelock %v, closure %v\n",
		rep.InvariantDeadlock, rep.InvariantLivelock, rep.InvariantClosure)
	fmt.Printf("  %d invariants, certificate %d bytes (re-validated by the independent checker)\n",
		rep.InvariantCount, rep.InvariantCertBytes)
	d := rep.InvariantDetail
	if d == nil {
		return
	}
	if len(d.Certificate.Traps) > 0 {
		fmt.Printf("  value traps: %v\n", d.Certificate.Traps)
	}
	if d.Certificate.Termination != nil {
		fmt.Printf("  termination potential over %d recurrent t-arcs (%d LP constraints, %d pivots)\n",
			d.Certificate.Termination.RecurrentTArcs, d.Constraints, d.Pivots)
	}
	if rep.LivelockProvedByInvariant {
		fmt.Println("  => livelock-freedom for EVERY K settled by this lane")
	}
	if d.LivelockWitnessK > 0 {
		fmt.Printf("  => real livelock on the size-%d ring (certified witness cycle)\n", d.LivelockWitnessK)
	}
	for _, n := range d.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// printLaneTable renders the per-lane verdict columns for the selected
// lanes — one row per lane, so conflicting verdicts sit side by side.
func printLaneTable(rep *verify.Report, laneSet map[string]bool, xval int) {
	fmt.Println("\nper-lane verdicts:")
	tb := trace.NewTable("lane", "deadlock-freedom", "livelock-freedom", "closure")
	tb.AddRow("theorem", rep.Deadlock, rep.LivelockTheorem, "-")
	if laneSet["invariant"] {
		if rep.InvariantSkipped != "" {
			tb.AddRow("invariant", "skipped", "skipped", "skipped")
		} else {
			tb.AddRow("invariant", rep.InvariantDeadlock, rep.InvariantLivelock, rep.InvariantClosure)
		}
	}
	if xval > 1 {
		cell := fmt.Sprintf("no conflict (K<=%d)", xval)
		if len(rep.Disagreements) > 0 {
			cell = "CONFLICT"
		}
		tb.AddRow("explicit", cell, cell, "-")
	}
	fmt.Print(tb.String())
	fmt.Printf("overall: deadlock-freedom %v, livelock-freedom %v\n", rep.Deadlock, rep.Livelock)
}

// crossValidate model-checks every ring size 2..maxK with the explicit
// oracle, fanning the per-K instances out across workers and printing the
// results as one K-ordered table (so the output is independent of
// scheduling). The table-KiB column is the resident per-state table of each
// instance (one bit per global state), so the cost of pushing K higher is
// visible next to the state counts.
func crossValidate(p *core.Protocol, maxK, workers int, maxStates uint64) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type row struct {
		states     uint64
		tableBytes uint64
		illegit    int
		converge   bool
		livelock   bool
		err        error
	}
	rows := make([]row, maxK+1)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for k := 2; k <= maxK; k++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			opts := []explicit.Option{explicit.WithWorkers(workers)}
			if maxStates > 0 {
				opts = append(opts, explicit.WithMaxStates(maxStates))
			}
			in, err := explicit.NewInstance(p, k, opts...)
			if err != nil {
				rows[k].err = err
				return
			}
			rep := in.CheckStrongConvergence()
			rows[k] = row{
				states:     in.NumStates(),
				tableBytes: in.TableBytes(),
				illegit:    len(in.IllegitimateDeadlocks()),
				converge:   rep.Converges,
				livelock:   rep.LivelockWitness != nil,
			}
		}(k)
	}
	wg.Wait()
	fmt.Printf("\nexplicit cross-validation (K=2..%d, %d workers):\n", maxK, workers)
	tb := trace.NewTable("K", "global states", "table KiB", "illegitimate deadlocks", "livelock", "strongly converges")
	for k := 2; k <= maxK; k++ {
		if rows[k].err != nil {
			return fmt.Errorf("K=%d: %w", k, rows[k].err)
		}
		tb.AddRow(k, rows[k].states, (rows[k].tableBytes+1023)/1024, rows[k].illegit, rows[k].livelock, rows[k].converge)
	}
	fmt.Print(tb.String())
	return nil
}
