// Facade walkthrough: the one-call verification API (internal/verify) plus
// the structured livelock diagnosis (ltg.Diagnose) — the entry points a
// protocol designer uses day to day. We sweep the whole zoo and print each
// protocol's combined verdict, then zoom into the agreement family to show
// how a diagnosis explains WHY a protocol passes or fails.
//
// Run with: go run ./examples/facade
package main

import (
	"fmt"
	"log"
	"sort"

	"paramring/internal/ltg"
	"paramring/internal/protocols"
	"paramring/internal/verify"
)

func main() {
	zoo := protocols.All()
	names := make([]string, 0, len(zoo))
	for n := range zoo {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Println("=== combined verdicts (local theorems + witness confirmation) ===")
	for _, name := range names {
		rep, err := verify.Check(zoo[name], verify.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s %s\n", name, rep.Summary())
	}

	fmt.Println("\n=== why agreement-both fails and agreement-t01 passes ===")
	for _, name := range []string{"agreement-t01", "agreement-both"} {
		p := zoo[name]
		d, err := ltg.Diagnose(p, ltg.CheckOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n%s", name, d.Summary(p.Compile()))
	}

	fmt.Println("\n=== confirming the agreement-both witness as a real livelock ===")
	p := zoo["agreement-both"]
	rep, err := ltg.CheckLivelockFreedom(p, ltg.CheckOptions{})
	if err != nil {
		log.Fatal(err)
	}
	conf, err := ltg.ConfirmWitness(p, rep.Witness, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("confirmed=%v at K=%d\n", conf.Confirmed, conf.K)
}
