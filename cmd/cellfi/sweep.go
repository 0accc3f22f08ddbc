package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cellfi/internal/lte"
	"cellfi/internal/netsim"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
	"cellfi/internal/topo"
)

// runSweep runs a grid of large-scale scenarios and emits one CSV row
// per configuration — the bulk-experiment companion to sim, for
// plotting coverage/throughput surfaces.
//
// Output columns: scheme, aps, clients_per_ap, trial, median_mbps,
// mean_mbps, p10_mbps, p90_mbps, starved_frac, total_mbps, hops.
//
// Grid points run concurrently on -workers goroutines; each point is
// seeded independently, so the CSV is byte-identical at any worker
// count. -telemetry writes the campaign's per-run wall times and
// simulated-event counts as JSON.
func runSweep(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlags("sweep", stderr)
	schemesFlag := fs.String("schemes", "cellfi,lte,oracle", "comma-separated schemes")
	apsFlag := fs.String("aps", "6,8,10,12,14", "comma-separated AP counts")
	clientsFlag := fs.String("clients", "6", "comma-separated clients per AP")
	trials := fs.Int("trials", 3, "independent topologies per configuration")
	epochs := fs.Int("epochs", 20, "IM epochs per run")
	seed := fs.Int64("seed", 1, "base seed")
	bwFlag := fs.Int("bw", 5, "carrier bandwidth in MHz (5, 10, 15, 20)")
	starve := fs.Float64("starve", 0.05, "starvation threshold in Mbps")
	workers := fs.Int("workers", 0, "concurrent grid points (0 = GOMAXPROCS)")
	telemetry := fs.String("telemetry", "", "write campaign telemetry JSON to this path")
	if code, ok := parse(fs, args, 0); !ok {
		return code
	}
	schemes, err := parseSchemes(*schemesFlag)
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
	if *starve < 0 {
		return fail(fs, exitUsage, "-starve must not be negative")
	}
	var bw lte.Bandwidth
	switch *bwFlag {
	case 5, 10, 15, 20:
		bw = lte.Bandwidth(*bwFlag)
	default:
		return fail(fs, exitUsage, "bandwidth must be 5, 10, 15 or 20 MHz")
	}

	// One runner spec per (aps, clients, trial) grid point; each spec
	// runs every scheme on its shared topology and returns the CSV rows
	// for that point. Specs are independently seeded, so the aggregated
	// CSV is identical at any worker count.
	var specs []runner.Spec
	for _, aps := range apsList {
		for _, clients := range clientsList {
			for tr := 0; tr < *trials; tr++ {
				trialSeed := *seed + int64(tr)*7919 + int64(aps)*131 + int64(clients)*17
				specs = append(specs, runner.Spec{
					Label: fmt.Sprintf("aps=%d/clients=%d/trial=%d", aps, clients, tr),
					Seed:  trialSeed,
					Run: func(c *runner.Ctx) (any, error) {
						tp := topo.Generate(topo.Paper(aps, clients), c.Seed())
						var rows []string
						for _, s := range schemes {
							cfg := netsim.DefaultConfig(s, c.Seed())
							cfg.BW = bw
							n := netsim.New(tp, cfg)
							th := n.Run(*epochs)
							c.AddSteps(int64(*epochs))
							cdf := stats.NewCDF(th)
							var total float64
							for _, v := range th {
								total += v
							}
							rows = append(rows, fmt.Sprintf("%s,%d,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.2f,%d",
								s, aps, clients, tr,
								cdf.Median(), cdf.Mean(), cdf.Quantile(0.1), cdf.Quantile(0.9),
								cdf.FractionBelow(*starve), total, n.Hops))
						}
						return rows, nil
					},
				})
			}
		}
	}

	rep := runner.Run(ctx, "cellfi sweep", specs, runner.Options{Workers: *workers})
	rows, err := runner.Values[[]string](rep)
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}

	fmt.Fprintln(stdout, "scheme,aps,clients_per_ap,trial,median_mbps,mean_mbps,p10_mbps,p90_mbps,starved_frac,total_mbps,hops")
	for _, point := range rows {
		for _, row := range point {
			fmt.Fprintln(stdout, row)
		}
	}

	if *telemetry != "" {
		if err := rep.WriteJSON(*telemetry); err != nil {
			return fail(fs, exitFailure, "writing telemetry: %v", err)
		}
		fmt.Fprintf(stderr, "cellfi sweep: %d runs, %d sim events in %.0f ms -> %s\n",
			len(rep.Runs), rep.TotalSimEvents, rep.WallMS, *telemetry)
	}
	return 0
}

// parseSizes parses a comma-separated list of counts, each at least 1.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("%d is below 1", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseSchemes parses a comma-separated list of scheme names.
func parseSchemes(s string) ([]netsim.Scheme, error) {
	var out []netsim.Scheme
	for _, f := range strings.Split(s, ",") {
		v, err := netsim.ParseScheme(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
