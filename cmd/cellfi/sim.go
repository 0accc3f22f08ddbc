package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cellfi/internal/experiments"
	"cellfi/internal/lte"
	"cellfi/internal/netsim"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
)

// runSim runs every scheme in -scheme at every AP count in -aps and
// client count in -clients over -trials topologies, and prints one CSV
// row per run in (aps, clients, trial, scheme) order. It is a config of
// experiments.Grid, the program behind Figure 9: one arm per scheme, its
// netsim config edited by the flags, each run a leg labelled
// <scheme>/aps=N/clients=M/trial=T and seeded from (seed, aps, clients,
// trial) alone, so the CSV is byte-identical at any -workers. -trace-dir
// flight-records each run to DIR/run<index>-<label>.trace for `cellfi
// trace`; -telemetry writes the campaign report as JSON.
func runSim(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlags("sim", stderr)
	schemeFlag := fs.String("scheme", "cellfi", "comma-separated schemes: lte, cellfi, oracle, random-hop or hybrid")
	apsFlag := fs.String("aps", "14", "comma-separated AP counts")
	clientsFlag := fs.String("clients", "6", "comma-separated clients per AP")
	epochs := fs.Int("epochs", 30, "1-second IM epochs to simulate")
	seed := fs.Int64("seed", 1, "base seed")
	area := fs.Float64("area", 2000, "area side (m)")
	noPacking := fs.Bool("no-packing", false, "disable the channel re-use heuristic")
	perfect := fs.Bool("perfect-sensing", false, "disable the measured sensing error injection")
	lambda := fs.Float64("lambda", 10, "hopping bucket mean")
	ifRadius := fs.Float64("interference-radius", 0,
		"interference-significance radius (m): truncate interference beyond this range and resolve neighborhoods through the grid (0 = exact all-pairs)")
	bwFlag := fs.Int("bw", 5, "carrier bandwidth in MHz (5, 10, 15, 20)")
	starve := fs.Float64("starve", 0.05, "starvation threshold in Mbps")
	trials := fs.Int("trials", 1, "independent topologies per grid point")
	workers := fs.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
	traceDir := fs.String("trace-dir", "", "flight-record each run into this directory (must exist)")
	telemetry := fs.String("telemetry", "", "write campaign telemetry JSON to this path")
	if code, ok := parse(fs, args, 0); !ok {
		return code
	}
	schemes, err := parseSchemes(*schemeFlag)
	if err != nil {
		return fail(fs, exitUsage, "%v", err)
	}
	apsList, err := parseSizes(*apsFlag)
	if err != nil {
		return fail(fs, exitUsage, "bad -aps: %v", err)
	}
	clientsList, err := parseSizes(*clientsFlag)
	if err != nil {
		return fail(fs, exitUsage, "bad -clients: %v", err)
	}
	if *trials < 1 || *epochs < 1 {
		return fail(fs, exitUsage, "-trials and -epochs must be at least 1")
	}
	if *area <= 0 || *lambda <= 0 {
		return fail(fs, exitUsage, "-area and -lambda must be positive")
	}
	if *ifRadius < 0 || *starve < 0 {
		return fail(fs, exitUsage, "-interference-radius and -starve must not be negative")
	}
	if *bwFlag != 5 && *bwFlag != 10 && *bwFlag != 15 && *bwFlag != 20 {
		return fail(fs, exitUsage, "bandwidth must be 5, 10, 15 or 20 MHz")
	}

	tune := func(cfg *netsim.Config) {
		cfg.BW = lte.Bandwidth(*bwFlag)
		cfg.PackingEnabled = !*noPacking
		cfg.PerfectSensing = *perfect
		cfg.Lambda = *lambda
		cfg.InterferenceRadiusM = *ifRadius
	}
	g := experiments.Grid{APs: apsList, Clients: clientsList, Trials: *trials, Epochs: *epochs, Area: *area,
		Seeds: experiments.SameSeeds(*seed, 7919, 131, 17)}
	for _, s := range schemes {
		g.Arms = append(g.Arms, experiments.SchemeArm(s, tune))
	}
	res, rep, err := g.Run(ctx, runner.Options{Workers: *workers, TraceDir: *traceDir})
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}
	rep.Campaign = "cellfi sim" // the grid's legs carry no campaign prefix
	fmt.Fprintln(stdout, "scheme,aps,clients_per_ap,trial,median_mbps,mean_mbps,p10_mbps,p90_mbps,starved_frac,total_mbps,hops,min_mbps,p25_mbps,p75_mbps,max_mbps")
	for p, arms := range res {
		aps, clients := apsList[p/len(clientsList)], clientsList[p%len(clientsList)]
		for tr := 0; tr < *trials; tr++ {
			for ai, s := range schemes {
				r := arms[ai][tr]
				cdf := stats.NewCDF(r.Samples)
				var total float64
				for _, v := range r.Samples {
					total += v
				}
				fmt.Fprintf(stdout, "%s,%d,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.2f,%d,%.4f,%.4f,%.4f,%.4f\n",
					s, aps, clients, tr,
					cdf.Median(), cdf.Mean(), cdf.Quantile(0.1), cdf.Quantile(0.9),
					cdf.FractionBelow(*starve), total, r.Hops,
					cdf.Min(), cdf.Quantile(0.25), cdf.Quantile(0.75), cdf.Max())
			}
		}
	}
	if *traceDir != "" {
		for _, r := range rep.Runs {
			fmt.Fprintf(stderr, "trace: %s (%d records)\n", r.TracePath, r.TraceRecords)
		}
	}
	if *telemetry != "" {
		if err := rep.WriteJSON(*telemetry); err != nil {
			return fail(fs, exitFailure, "writing telemetry: %v", err)
		}
		fmt.Fprintf(stderr, "cellfi sim: %d runs, %d sim events in %.0f ms -> %s\n",
			len(rep.Runs), rep.TotalSimEvents, rep.WallMS, *telemetry)
	}
	return 0
}

// parseSizes parses a comma-separated list of counts, each at least 1.
func parseSizes(s string) ([]int, error) {
	return parseList(s, func(f string) (int, error) {
		v, err := strconv.Atoi(f)
		if err == nil && v < 1 {
			err = fmt.Errorf("%d is below 1", v)
		}
		return v, err
	})
}

// parseSchemes parses a comma-separated list of scheme names.
func parseSchemes(s string) ([]netsim.Scheme, error) { return parseList(s, netsim.ParseScheme) }

// parseList parses each comma-separated, space-trimmed field of s.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
