package experiments

import (
	"context"
	"fmt"
	"sync"

	"cellfi/internal/runner"
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

// keep files a fleet's report, without its legs' results, for
// DrainReports, then panics if a leg failed: silent gaps would skew the
// aggregated statistics, and the report names the failed scenario and
// seed once every other leg has finished.
func keep(campaign string, rep *runner.Report, err error) {
	for i := range rep.Runs {
		rep.Runs[i].Value = nil
	}
	fleetMu.Lock()
	fleetReports = append(fleetReports, rep)
	fleetMu.Unlock()
	if err != nil {
		panic(fmt.Sprintf("experiments: campaign %s: %v", campaign, err))
	}
}

// runGrid runs every (arm, trial) pair of a campaign under opts as a
// runner leg labelled [campaign/]arm/trial=N and seeded seedOf(arm,
// trial), and returns results[arm][trial] with the campaign's report; a
// failed leg is an error. Every experiment and Grid fans out through it.
func runGrid[T any](ctx context.Context, opts runner.Options, campaign string, arms []string, trials int,
	seedOf func(arm, tr int) int64, run func(c *runner.Ctx, arm, tr int) T) ([][]T, *runner.Report, error) {
	specs := make([]runner.Spec, 0, len(arms)*trials)
	for ai, name := range arms {
		if campaign != "" {
			name = campaign + "/" + name
		}
		for tr := 0; tr < trials; tr++ {
			specs = append(specs, runner.Spec{
				Label: fmt.Sprintf("%s/trial=%d", name, tr),
				Seed:  seedOf(ai, tr),
				Run:   func(c *runner.Ctx) (any, error) { return run(c, ai, tr), nil },
			})
		}
	}
	rep := runner.Run(ctx, campaign, specs, opts)
	flat, err := runner.Values[T](rep)
	if err != nil {
		return nil, rep, err
	}
	out := make([][]T, len(arms))
	for ai := range out {
		out[ai] = flat[ai*trials : (ai+1)*trials]
	}
	return out, rep, nil
}

// grid is runGrid as an experiment fleet on the shared pool, seeding
// every arm of a trial seedOf(trial).
func grid[T any](campaign string, arms []string, trials int, seedOf func(tr int) int64, run func(c *runner.Ctx, arm, tr int) T) [][]T {
	res, rep, err := runGrid(context.Background(), fleetOptions(), campaign, arms, trials,
		func(_, tr int) int64 { return seedOf(tr) }, run)
	keep(campaign, rep, err)
	return res
}
