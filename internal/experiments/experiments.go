// Package experiments regenerates every table and figure of the
// paper's evaluation, plus the ablations and extensions. Each
// experiment is a Runner keyed by the ID used in EXPERIMENTS.md (IDs()
// lists all 21: table1, fig1, fig2, fig6, fig7, fig8, prach, fig9a,
// fig9b, fig9c, theorem1, overhead, reuse, lambda, sensing, hopping,
// hybrid, sched, uplink, aggregation, mobility); runners return typed
// tables and series that `cellfi experiments` prints and the benchmark's
// repro_full workload times.
//
// There is one fan-out: runGrid (parallel.go) runs a campaign's
// (arm, trial) legs on the runner pool. The large-scale evaluation and
// everything built on it — fig9a, fig9b, reuse, lambda, sensing,
// hopping, hybrid, uplink, aggregation, mobility — is an arm list, grid
// points, a seed rule and table text on a Grid (sweep.go), whose
// Arm.run is the single place a backlogged netsim.Network is built and
// driven; `cellfi sim` and `cellfi map` are Grid configs too, and
// Figure 9c's web-workload driver is the only other netsim caller.
package experiments

import (
	"fmt"

	"cellfi/internal/stats"
)

// Result is one experiment's reproduced output.
type Result struct {
	ID    string
	Title string
	// Tables hold paper-style rows.
	Tables []*stats.Table
	// Series hold plottable lines (for the figure-shaped results).
	Series []stats.Series
	// Notes record paper-vs-measured observations.
	Notes []string
}

// Runner executes an experiment. quick trades trial counts and run
// lengths for speed (used by tests and benchmarks); the full mode
// matches the paper's scale.
type Runner func(seed int64, quick bool) Result

// catalog lists every runner under its ID, in the paper's presentation
// order.
var catalog = []struct {
	id  string
	run Runner
}{
	{"table1", Table1}, {"fig1", Figure1}, {"fig2", Figure2}, {"fig6", Figure6},
	{"fig7", Figure7}, {"fig8", Figure8}, {"prach", PRACH},
	{"fig9a", Figure9a}, {"fig9b", Figure9b}, {"fig9c", Figure9c},
	{"theorem1", Theorem1}, {"overhead", Overhead},
	{"reuse", ReuseAblation}, {"lambda", LambdaAblation}, {"sensing", SensingAblation},
	{"hopping", HoppingBaseline}, {"hybrid", HybridExtension}, {"sched", SchedulerAblation},
	{"uplink", UplinkExtension}, {"aggregation", AggregationExtension}, {"mobility", MobilityExtension},
}

// Get returns the runner for an experiment ID.
func Get(id string) (Runner, bool) {
	for _, e := range catalog {
		if e.id == id {
			return e.run, true
		}
	}
	return nil, false
}

// IDs returns all experiment IDs in presentation order.
func IDs() []string {
	out := make([]string, len(catalog))
	for i, e := range catalog {
		out[i] = e.id
	}
	return out
}

// note formats a paper-vs-measured annotation.
func note(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// cdfSeries converts samples into a plottable CDF line.
func cdfSeries(name string, samples []float64, points int) stats.Series {
	return stats.Series{Name: name, Points: stats.NewCDF(samples).Points(points)}
}
