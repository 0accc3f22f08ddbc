// Command cellfi-sweep runs a grid of large-scale scenarios and emits
// one CSV row per configuration — the bulk-experiment companion to
// cellfi-sim, for plotting coverage/throughput surfaces.
//
// Usage:
//
//	cellfi-sweep [-schemes cellfi,lte,oracle] [-aps 6,8,10,12,14]
//	             [-clients 6] [-trials 3] [-epochs 20] [-seed 1]
//	             [-bw 5] [-starve 0.05] [-workers N]
//	             [-telemetry report.json]
//	             [-cpuprofile cpu.out] [-memprofile mem.out] [-trace trace.out]
//
// Output columns: scheme, aps, clients_per_ap, trial, median_mbps,
// mean_mbps, p10_mbps, p90_mbps, starved_frac, total_mbps, hops.
//
// Grid points run concurrently on -workers goroutines; each point is
// seeded independently, so the CSV is byte-identical at any worker
// count. -telemetry writes the campaign's per-run wall times and
// simulated-event counts as JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"cellfi/internal/lte"
	"cellfi/internal/netsim"
	"cellfi/internal/profiling"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
	"cellfi/internal/topo"
)

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

func main() { os.Exit(run()) }

// run is main's body returning the exit code, so the deferred profile
// flush happens on every exit.
func run() int {
	schemesFlag := flag.String("schemes", "cellfi,lte,oracle", "comma-separated schemes")
	apsFlag := flag.String("aps", "6,8,10,12,14", "comma-separated AP counts")
	clientsFlag := flag.String("clients", "6", "comma-separated clients per AP")
	trials := flag.Int("trials", 3, "independent topologies per configuration")
	epochs := flag.Int("epochs", 20, "IM epochs per run")
	seed := flag.Int64("seed", 1, "base seed")
	bwFlag := flag.Int("bw", 5, "carrier bandwidth in MHz (5, 10, 15, 20)")
	starve := flag.Float64("starve", 0.05, "starvation threshold in Mbps")
	workers := flag.Int("workers", 0, "concurrent grid points (0 = GOMAXPROCS)")
	telemetry := flag.String("telemetry", "", "write campaign telemetry JSON to this path")
	prof := profiling.AddFlags()
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		log.Printf("cellfi-sweep: %v", err)
		return 1
	}
	defer stopProf()

	schemes, err := parseSchemes(*schemesFlag)
	if err != nil {
		log.Printf("cellfi-sweep: %v", err)
		return 1
	}
	apsList, err := parseSizes(*apsFlag)
	if err != nil {
		log.Printf("cellfi-sweep: bad -aps: %v", err)
		return 1
	}
	clientsList, err := parseSizes(*clientsFlag)
	if err != nil {
		log.Printf("cellfi-sweep: bad -clients: %v", err)
		return 1
	}
	if *trials < 1 || *epochs < 1 {
		log.Printf("cellfi-sweep: -trials and -epochs must be at least 1")
		return 1
	}
	var bw lte.Bandwidth
	switch *bwFlag {
	case 5, 10, 15, 20:
		bw = lte.Bandwidth(*bwFlag)
	default:
		log.Printf("cellfi-sweep: bandwidth must be 5, 10, 15 or 20 MHz")
		return 1
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

	rep := runner.Run(context.Background(), "cellfi-sweep", specs, runner.Options{Workers: *workers})
	rows, err := runner.Values[[]string](rep)
	if err != nil {
		log.Printf("cellfi-sweep: %v", err)
		return 1
	}

	w := os.Stdout
	fmt.Fprintln(w, "scheme,aps,clients_per_ap,trial,median_mbps,mean_mbps,p10_mbps,p90_mbps,starved_frac,total_mbps,hops")
	for _, point := range rows {
		for _, row := range point {
			fmt.Fprintln(w, row)
		}
	}

	if *telemetry != "" {
		if err := rep.WriteJSON(*telemetry); err != nil {
			log.Printf("cellfi-sweep: writing telemetry: %v", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "cellfi-sweep: %d runs, %d sim events in %.0f ms -> %s\n",
			len(rep.Runs), rep.TotalSimEvents, rep.WallMS, *telemetry)
	}
	return 0
}
