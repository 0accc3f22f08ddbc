package experiments

import (
	"context"
	"fmt"
	"sync"

	"cellfi/internal/runner"
	"cellfi/internal/sim"
)

// Experiment fleets: every trial loop in this package fans out through
// internal/runner. Each leg derives all randomness from its own seed,
// and legs are aggregated in spec order, so experiment output is
// bit-identical for any worker count (parallel_test.go enforces this).

var (
	fleetMu       sync.Mutex
	fleetWorkers  int // 0 = GOMAXPROCS
	fleetProgress func(runner.Progress)
	fleetReports  []*runner.Report
)

// SetWorkers bounds the worker pool used by experiment fleets
// (`cellfi experiments -workers`). Zero restores the GOMAXPROCS default.
func SetWorkers(n int) {
	fleetMu.Lock()
	fleetWorkers = n
	fleetMu.Unlock()
}

// SetProgress installs a callback observing every fleet run (used by
// `cellfi experiments -progress`). Pass nil to disable.
func SetProgress(fn func(runner.Progress)) {
	fleetMu.Lock()
	fleetProgress = fn
	fleetMu.Unlock()
}

// DrainReports returns the telemetry reports of every campaign run
// since the previous call, oldest first.
func DrainReports() []*runner.Report {
	fleetMu.Lock()
	defer fleetMu.Unlock()
	out := fleetReports
	fleetReports = nil
	return out
}

func fleetOptions() runner.Options {
	fleetMu.Lock()
	defer fleetMu.Unlock()
	return runner.Options{Workers: fleetWorkers, OnProgress: fleetProgress}
}

func recordReport(rep *runner.Report) {
	fleetMu.Lock()
	fleetReports = append(fleetReports, rep)
	fleetMu.Unlock()
}

// leg is one unit of an experiment fleet.
type leg[T any] struct {
	label string
	seed  int64
	run   func(c *runner.Ctx) T
}

// fleet runs the legs through the shared pool and returns their values
// in leg order. A failed leg aborts the experiment by panicking — the
// sequential code had no partial-trial semantics and silent gaps would
// skew aggregated statistics — but only after every other leg has
// finished, so the failure report names the exact scenario and seed.
func fleet[T any](campaign string, legs []leg[T]) []T {
	specs := make([]runner.Spec, len(legs))
	for i := range legs {
		l := legs[i]
		specs[i] = runner.Spec{
			Label: l.label,
			Seed:  l.seed,
			Run:   func(c *runner.Ctx) (any, error) { return l.run(c), nil },
		}
	}
	rep := runner.Run(context.Background(), campaign, specs, fleetOptions())
	vals, err := runner.Values[T](rep)
	// The report outlives this call in fleetReports; it is kept for its
	// telemetry, so it must not pin every leg's result with it.
	for i := range rep.Runs {
		rep.Runs[i].Value = nil
	}
	recordReport(rep)
	if err != nil {
		panic(fmt.Sprintf("experiments: campaign %s: %v", campaign, err))
	}
	return vals
}

// fleetEngine returns a telemetry-tracked engine when running inside a
// fleet, or a plain engine when the scenario helper is called directly
// (tests, examples) with a nil Ctx.
func fleetEngine(c *runner.Ctx, seed int64) *sim.Engine {
	if c != nil {
		return c.Engine(seed)
	}
	return sim.NewEngine(seed)
}

// addSteps accounts coarse work (fluid-simulator epochs) when inside a
// fleet; a no-op with a nil Ctx.
func addSteps(c *runner.Ctx, n int) {
	if c != nil {
		c.AddSteps(int64(n))
	}
}

// grid runs every (arm, trial) pair of a campaign as its own fleet leg,
// labelled campaign/arm/trial=N and seeded seedOf(trial) whatever the
// arm, and returns results[arm][trial]. It is the one fan-out every
// experiment in this package goes through.
func grid[T any](campaign string, arms []string, trials int, seedOf func(tr int) int64, run func(c *runner.Ctx, arm, tr int) T) [][]T {
	legs := make([]leg[T], 0, len(arms)*trials)
	for ai, name := range arms {
		for tr := 0; tr < trials; tr++ {
			legs = append(legs, leg[T]{
				label: fmt.Sprintf("%s/%s/trial=%d", campaign, name, tr),
				seed:  seedOf(tr),
				run:   func(c *runner.Ctx) T { return run(c, ai, tr) },
			})
		}
	}
	flat := fleet(campaign, legs)
	out := make([][]T, len(arms))
	for ai := range out {
		out[ai] = flat[ai*trials : (ai+1)*trials]
	}
	return out
}
