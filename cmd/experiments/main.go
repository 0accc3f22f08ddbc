// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-id fig9b] [-seed 1] [-quick] [-series] [-list]
//	            [-workers N] [-telemetry report.json]
//	            [-cpuprofile cpu.out] [-memprofile mem.out] [-trace trace.out] [-progress]
//
// Without -id it runs every experiment in presentation order. -quick
// trades trial counts for speed; -series additionally dumps the raw
// (x, y) series behind each figure for external plotting. Experiments
// fan their scenario fleets across -workers goroutines (results are
// bit-identical at any worker count); -telemetry writes the merged
// per-run campaign report as JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cellfi/internal/experiments"
	"cellfi/internal/profiling"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
)

func main() { os.Exit(run()) }

// run is main's body returning the exit code, so the deferred profile
// flush happens on every exit, including a failed telemetry write.
func run() int {
	id := flag.String("id", "", "experiment ID to run (default: all)")
	seed := flag.Int64("seed", 1, "base random seed")
	quick := flag.Bool("quick", false, "reduced trials for a fast pass")
	series := flag.Bool("series", false, "print raw series points for plotting")
	plot := flag.Bool("plot", false, "render each figure's series as terminal plots")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	workers := flag.Int("workers", 0, "scenario-fleet workers (0 = GOMAXPROCS)")
	telemetry := flag.String("telemetry", "", "write merged campaign telemetry JSON to this path")
	progress := flag.Bool("progress", false, "report per-run fleet progress on stderr")
	prof := profiling.AddFlags()
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	defer stopProf()

	experiments.SetWorkers(*workers)
	if *progress {
		experiments.SetProgress(func(p runner.Progress) {
			fmt.Fprintf(os.Stderr, "[%s] %d/%d done (%d failed) %s\n",
				p.Campaign, p.Done, p.Total, p.Failed, p.Label)
		})
	}

	if *list {
		for _, eid := range experiments.IDs() {
			fmt.Println(eid)
		}
		return 0
	}

	ids := experiments.IDs()
	if *id != "" {
		if _, ok := experiments.Get(*id); !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *id)
			return 2
		}
		ids = []string{*id}
	}

	for _, eid := range ids {
		runExp, _ := experiments.Get(eid)
		res := runExp(*seed, *quick)
		fmt.Printf("==== %s ====\n\n", res.Title)
		for _, tb := range res.Tables {
			fmt.Println(tb.String())
		}
		for _, n := range res.Notes {
			fmt.Printf("  * %s\n", n)
		}
		if *plot && len(res.Series) > 0 {
			// CDP-style figures overlay naturally; cap at 4 series
			// per plot to keep glyphs readable.
			for start := 0; start < len(res.Series); start += 4 {
				end := start + 4
				if end > len(res.Series) {
					end = len(res.Series)
				}
				fmt.Println(stats.Plot(res.Series[start:end], stats.DefaultPlotOptions()))
			}
		}
		if *series {
			for _, sr := range res.Series {
				fmt.Printf("\n# %s\n", sr.Name)
				for _, p := range sr.Points {
					fmt.Printf("%g\t%g\n", p[0], p[1])
				}
			}
		}
		fmt.Println(strings.Repeat("-", 64))
	}

	if *telemetry != "" {
		reps := experiments.DrainReports()
		// Purely computed experiments (e.g. overhead) run no fleet;
		// still emit a valid empty report so tooling can rely on the
		// file existing.
		merged := &runner.Report{Campaign: "experiments"}
		if len(reps) > 0 {
			var err error
			merged, err = runner.Merge("experiments", reps...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: merging telemetry: %v\n", err)
				return 1
			}
		}
		if err := merged.WriteJSON(*telemetry); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing telemetry: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "experiments: %d campaigns, %d runs, %d sim events -> %s\n",
			len(reps), len(merged.Runs), merged.TotalSimEvents, *telemetry)
	}
	return 0
}
