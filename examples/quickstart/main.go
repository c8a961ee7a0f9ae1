// Quickstart: run the paper's study end-to-end with three calls and
// print the headline results — the fastest way to see the reproduction
// work.
package main

import (
	"context"
	"fmt"
	"log"

	"pblparallel/internal/core"
)

func main() {
	// 1. Configure the study exactly as published (124 students, 26
	//    teams, calibrated survey model).
	cfg := core.PaperStudy()

	// 2. Run it: cohort → team formation → semester activity → two
	//    survey waves → full analysis.
	outcome, err := core.NewStudy(core.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	// 3. Read the headline numbers the abstract reports.
	rep := outcome.Report
	fmt.Printf("students: %d, teams: %d\n", len(outcome.Cohort.Students), len(outcome.Formation.Teams))
	fmt.Printf("personal growth: paired t = %.2f (p = %.2g), Cohen's d = %.2f (%s)\n",
		rep.Table1.PersonalGrowth.T, rep.Table1.PersonalGrowth.P,
		rep.Table3.D, rep.Table3.Band())
	fmt.Printf("class emphasis:  paired t = %.2f (p = %.2g), Cohen's d = %.2f (%s)\n",
		rep.Table1.ClassEmphasis.T, rep.Table1.ClassEmphasis.P,
		rep.Table2.D, rep.Table2.Band())
	fmt.Printf("top-ranked growth skill: %s\n", rep.Table6.SecondHalf[0].Name)

	// 4. Check the reproduction against the published tables.
	failed := outcome.Comparison.FailedShape()
	fmt.Printf("shape checks: %d/%d hold\n",
		len(outcome.Comparison.Shape)-len(failed), len(outcome.Comparison.Shape))
	for _, f := range failed {
		fmt.Printf("  failed: %s\n", f.Claim)
	}
}
