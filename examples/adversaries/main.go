// Example adversaries: the Section 5.2 open question, executed.
//
// The paper proposes lockstep detection over the store's install stream
// as a defense against incentivized install campaigns, and asks whether
// it survives adversaries that adapt. This example runs a small
// scenario×seed grid — the observed world plus two evasion strategies —
// and prints detector precision/recall/F1 per adversary against each
// world's recorded ground truth.
//
// Run with: go run ./examples/adversaries
package main

import (
	"fmt"
	"log"
	"log/slog"
	"os"

	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

func main() {
	fmt.Println("Registered scenarios:")
	for _, name := range scenario.Names() {
		sp, _ := scenario.Lookup(name)
		fmt.Printf("  %-16s %s\n", name, sp.Description)
	}
	fmt.Println()

	res, err := sweep.Run(sweep.Options{
		Scenarios: []string{"paper-baseline", "sybil-split", "device-churn"},
		Seeds:     []uint64{20190301},
		Log:       slog.Default(),
	})
	if err != nil {
		log.Fatal(err)
	}
	report.WriteSweep(os.Stdout, res)

	baseline, _ := res.Baseline()
	for _, s := range res.Scenarios {
		if s.Name == baseline.Name {
			continue
		}
		fmt.Printf("%s: recall %.3f vs baseline %.3f (Δ %+.3f)\n",
			s.Name, s.Recall, baseline.Recall, s.Recall-baseline.Recall)
	}
}
