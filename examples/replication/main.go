// Replication: the reproduction's research tools — how stable are the
// paper's findings across resampled cohorts (sensitivity), what would
// the planned Spring 2019 revision do (what-if projection), how reliable
// is the survey instrument (Cronbach's alpha), and does the data survive
// a round trip through CSV for external analysis.
//
// The phases run concurrently on the parallel engine (the sensitivity
// sweep itself fans out internally as well), but each phase renders to
// its own buffer and the buffers print in a fixed order, so the output
// is byte-identical to the old sequential program.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	"pblparallel/internal/analysis"
	"pblparallel/internal/core"
	"pblparallel/internal/engine"
	"pblparallel/internal/sensitivity"
	"pblparallel/internal/survey"
	"pblparallel/internal/whatif"
)

func main() {
	ctx := context.Background()
	eng := engine.New()

	phases := []func() (string, error){
		// 1. Sensitivity: re-run the study across 20 seeds at n=124.
		func() (string, error) {
			sens, err := sensitivity.RunSweep(ctx, 20180800, 20, sensitivity.Options{})
			if err != nil {
				return "", err
			}
			return sens.Render(), nil
		},
		// 2. The Spring 2019 projection.
		func() (string, error) {
			proj, err := whatif.Project(ctx, eng, whatif.TeamworkReinforcement(), 2000, 7)
			if err != nil {
				return "", err
			}
			return "\n" + proj.Render(), nil
		},
		// 3+4. Instrument reliability on the paper run, then CSV
		// interchange: export, re-import, confirm the analysis is
		// bit-identical.
		func() (string, error) {
			outcome, err := core.NewStudy().Run(ctx)
			if err != nil {
				return "", err
			}
			var out strings.Builder
			alphas, err := analysis.Reliability(outcome.Dataset)
			if err != nil {
				return "", err
			}
			keys := make([]string, 0, len(alphas))
			for k := range alphas {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintln(&out, "\nCronbach's alpha (end-of-term wave, Class Emphasis):")
			for _, k := range keys {
				if strings.Contains(k, "Class Emphasis / Second Half") {
					fmt.Fprintf(&out, "  %-60s %.2f\n", k, alphas[k])
				}
			}
			var b strings.Builder
			if err := survey.WriteCSV(&b, outcome.Instrument, outcome.Dataset.End); err != nil {
				return "", err
			}
			back, err := survey.ReadCSV(strings.NewReader(b.String()), outcome.Instrument, survey.EndOfTerm)
			if err != nil {
				return "", err
			}
			ds := analysis.Dataset{Instrument: outcome.Instrument, Mid: outcome.Dataset.Mid, End: back}
			rep, err := analysis.Run(ds)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&out, "\nCSV round trip: %d bytes exported; growth d %.4f -> %.4f (identical: %v)\n",
				b.Len(), outcome.Report.Table3.D, rep.Table3.D, rep.Table3.D == outcome.Report.Table3.D)
			return out.String(), nil
		},
	}

	rendered, err := engine.Map(ctx, eng, len(phases), func(_ context.Context, i int) (string, error) {
		return phases[i]()
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range rendered {
		fmt.Print(s)
	}
}
