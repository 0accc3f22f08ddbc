// Package experiments regenerates every table and figure of the
// paper's evaluation, plus the ablations and extensions. Each
// experiment is a Runner keyed by the ID used in EXPERIMENTS.md (IDs()
// lists all 21: table1, fig1, fig2, fig6, fig7, fig8, prach, fig9a,
// fig9b, fig9c, theorem1, overhead, reuse, lambda, sensing, hopping,
// hybrid, sched, uplink, aggregation, mobility); runners return typed
// tables and series that cmd/experiments prints and the benchmark's
// repro_full workload times.
package experiments

import (
	"fmt"
	"math/rand"

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

// registry maps experiment IDs to runners.
var registry = map[string]Runner{}

// ordered preserves presentation order.
var ordered []string

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
	ordered = append(ordered, id)
}

// Get returns the runner for an experiment ID.
func Get(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// canonicalOrder is the paper's presentation order; registered
// experiments not listed here are appended at the end.
var canonicalOrder = []string{
	"table1", "fig1", "fig2", "fig6", "fig7", "fig8", "prach",
	"fig9a", "fig9b", "fig9c", "theorem1", "overhead",
	"reuse", "lambda", "sensing", "hopping", "hybrid", "sched", "uplink", "aggregation", "mobility",
}

// IDs returns all experiment IDs in presentation order.
func IDs() []string {
	out := make([]string, 0, len(ordered))
	seen := map[string]bool{}
	for _, id := range canonicalOrder {
		if _, ok := registry[id]; ok {
			out = append(out, id)
			seen[id] = true
		}
	}
	for _, id := range ordered {
		if !seen[id] {
			out = append(out, id)
		}
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

// newSeededRand returns a rand.Rand on its own deterministic source.
func newSeededRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
