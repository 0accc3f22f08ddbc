package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"cellfi/internal/experiments"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
)

// runExperiments regenerates the paper's tables and figures.
//
// Without -id it runs every experiment in presentation order. -quick
// trades trial counts for speed; -series additionally dumps the raw
// (x, y) series behind each figure for external plotting. Experiments
// fan their scenario fleets across -workers goroutines (results are
// bit-identical at any worker count); -telemetry writes the merged
// per-run campaign report as JSON.
func runExperiments(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlags("experiments", stderr)
	id := fs.String("id", "", "experiment ID to run (default: all)")
	seed := fs.Int64("seed", 1, "base random seed")
	quick := fs.Bool("quick", false, "reduced trials for a fast pass")
	series := fs.Bool("series", false, "print raw series points for plotting")
	plot := fs.Bool("plot", false, "render each figure's series as terminal plots")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	workers := fs.Int("workers", 0, "scenario-fleet workers (0 = GOMAXPROCS)")
	telemetry := fs.String("telemetry", "", "write merged campaign telemetry JSON to this path")
	progress := fs.Bool("progress", false, "report per-run fleet progress on stderr")
	if code, ok := parse(fs, args, 0); !ok {
		return code
	}

	if *list {
		for _, eid := range experiments.IDs() {
			fmt.Fprintln(stdout, eid)
		}
		return 0
	}
	ids := experiments.IDs()
	if *id != "" {
		if _, ok := experiments.Get(*id); !ok {
			return fail(fs, exitUsage, "unknown experiment %q; try -list", *id)
		}
		ids = []string{*id}
	}

	experiments.SetWorkers(*workers)
	if *progress {
		experiments.SetProgress(func(p runner.Progress) {
			fmt.Fprintf(stderr, "[%s] %d/%d done (%d failed) %s\n",
				p.Campaign, p.Done, p.Total, p.Failed, p.Label)
		})
		defer experiments.SetProgress(nil)
	}

	for _, eid := range ids {
		if ctx.Err() != nil {
			return fail(fs, exitFailure, "interrupted before %s", eid)
		}
		runExp, _ := experiments.Get(eid)
		res := runExp(*seed, *quick)
		fmt.Fprintf(stdout, "==== %s ====\n\n", res.Title)
		for _, tb := range res.Tables {
			fmt.Fprintln(stdout, tb.String())
		}
		for _, n := range res.Notes {
			fmt.Fprintf(stdout, "  * %s\n", n)
		}
		if *plot && len(res.Series) > 0 {
			// CDP-style figures overlay naturally; cap at 4 series
			// per plot to keep glyphs readable.
			for start := 0; start < len(res.Series); start += 4 {
				end := min(start+4, len(res.Series))
				fmt.Fprintln(stdout, stats.Plot(res.Series[start:end]))
			}
		}
		if *series {
			for _, sr := range res.Series {
				fmt.Fprintf(stdout, "\n# %s\n", sr.Name)
				for _, p := range sr.Points {
					fmt.Fprintf(stdout, "%g\t%g\n", p[0], p[1])
				}
			}
		}
		fmt.Fprintln(stdout, strings.Repeat("-", 64))
	}

	if *telemetry != "" {
		reps := experiments.DrainReports()
		// Purely computed experiments (e.g. overhead) run no fleet;
		// still emit a valid empty report so tooling can rely on the
		// file existing.
		merged := &runner.Report{Campaign: "experiments"}
		if len(reps) > 0 {
			var err error
			if merged, err = runner.Merge("experiments", reps...); err != nil {
				return fail(fs, exitFailure, "merging telemetry: %v", err)
			}
		}
		if err := merged.WriteJSON(*telemetry); err != nil {
			return fail(fs, exitFailure, "writing telemetry: %v", err)
		}
		fmt.Fprintf(stderr, "cellfi experiments: %d campaigns, %d runs, %d sim events -> %s\n",
			len(reps), len(merged.Runs), merged.TotalSimEvents, *telemetry)
	}
	return 0
}
