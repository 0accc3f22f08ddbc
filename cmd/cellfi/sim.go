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

// runSim runs a grid of large-scale interference-management scenarios
// — every scheme in -scheme at every AP count in -aps and client count
// in -clients, over -trials independently seeded topologies — and
// prints one CSV row per run. The defaults are one scenario: cellfi,
// 14 APs, 6 clients per AP.
//
// Output columns: scheme, aps, clients_per_ap, trial, median_mbps,
// mean_mbps, p10_mbps, p90_mbps, starved_frac, total_mbps, hops,
// min_mbps, p25_mbps, p75_mbps, max_mbps; rows run in (aps, clients,
// trial, scheme) order.
//
// Each run is one runner spec, labelled <scheme>/aps=N/clients=M/trial=T
// and seeded from (seed, aps, clients, trial) alone, so every scheme of
// a grid point runs on the same topology and the CSV is byte-identical
// at any -workers. With -trace-dir set, each run flight-records its
// interference-management decisions to DIR/run<index>-<label>.trace for
// `cellfi trace` to inspect (`cellfi trace timeline -ap N` draws a
// cell's subchannel holdings per epoch). -telemetry writes the
// campaign's per-run wall times and simulated-event counts as JSON.
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
	var bw lte.Bandwidth
	switch *bwFlag {
	case 5, 10, 15, 20:
		bw = lte.Bandwidth(*bwFlag)
	default:
		return fail(fs, exitUsage, "bandwidth must be 5, 10, 15 or 20 MHz")
	}

	var specs []runner.Spec
	for _, aps := range apsList {
		for _, clients := range clientsList {
			for tr := 0; tr < *trials; tr++ {
				for _, s := range schemes {
					specs = append(specs, runner.Spec{
						Label: fmt.Sprintf("%s/aps=%d/clients=%d/trial=%d", s, aps, clients, tr),
						Seed:  *seed + int64(tr)*7919 + int64(aps)*131 + int64(clients)*17,
						Run: func(c *runner.Ctx) (any, error) {
							p := topo.Paper(aps, clients)
							p.AreaSide = *area
							tp := topo.Generate(p, c.Seed())
							cfg := netsim.DefaultConfig(s, c.Seed())
							cfg.BW = bw
							cfg.PackingEnabled = !*noPacking
							cfg.PerfectSensing = *perfect
							cfg.Lambda = *lambda
							cfg.InterferenceRadiusM = *ifRadius
							cfg.Trace = c.Recorder()

							n := netsim.New(tp, cfg)
							th := n.Run(*epochs)
							c.AddSteps(int64(*epochs))
							cdf := stats.NewCDF(th)
							var total float64
							for _, v := range th {
								total += v
							}
							return fmt.Sprintf("%s,%d,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.2f,%d,%.4f,%.4f,%.4f,%.4f",
								s, aps, clients, tr,
								cdf.Median(), cdf.Mean(), cdf.Quantile(0.1), cdf.Quantile(0.9),
								cdf.FractionBelow(*starve), total, n.Hops,
								cdf.Min(), cdf.Quantile(0.25), cdf.Quantile(0.75), cdf.Max()), nil
						},
					})
				}
			}
		}
	}

	rep := runner.Run(ctx, "cellfi sim", specs, runner.Options{Workers: *workers, TraceDir: *traceDir})
	rows, err := runner.Values[string](rep)
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}
	fmt.Fprintln(stdout, "scheme,aps,clients_per_ap,trial,median_mbps,mean_mbps,p10_mbps,p90_mbps,starved_frac,total_mbps,hops,min_mbps,p25_mbps,p75_mbps,max_mbps")
	for _, row := range rows {
		fmt.Fprintln(stdout, row)
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
