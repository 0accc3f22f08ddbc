// Command cellfi-sim runs one large-scale interference-management
// scenario and prints per-client results — the workhorse behind the
// Figure 9 experiments, exposed with knobs.
//
// Usage:
//
//	cellfi-sim [-scheme lte|cellfi|oracle|random-hop|hybrid] [-aps 14] [-clients 6]
//	           [-epochs 30] [-seed 1] [-area 2000]
//	           [-no-packing] [-perfect-sensing] [-lambda 10]
//	           [-interference-radius 800]
//	           [-trials 1] [-workers N] [-trace-dir DIR]
//	           [-cpuprofile cpu.out] [-memprofile mem.out] [-trace trace.out]
//
// With -trials > 1 the scenario repeats over independently seeded
// topologies, fanned across -workers goroutines; per-trial summaries
// print in trial order regardless of scheduling.
//
// With -trace-dir set, each trial flight-records its interference-
// management decisions to DIR/run<trial>-trial_<n>.trace; inspect the
// streams with cellfi-trace (dump, timeline, diff).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"cellfi/internal/netsim"
	"cellfi/internal/profiling"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
	"cellfi/internal/topo"
)

func main() { os.Exit(run()) }

// run is main's body returning the exit code, so the deferred profile
// flush happens on every exit, including an invariant violation.
func run() int {
	scheme := flag.String("scheme", "cellfi", "lte, cellfi, oracle, random-hop or hybrid")
	aps := flag.Int("aps", 14, "number of access points")
	clients := flag.Int("clients", 6, "clients per AP")
	epochs := flag.Int("epochs", 30, "1-second IM epochs to simulate")
	seed := flag.Int64("seed", 1, "random seed")
	area := flag.Float64("area", 2000, "area side (m)")
	noPacking := flag.Bool("no-packing", false, "disable the channel re-use heuristic")
	perfect := flag.Bool("perfect-sensing", false, "disable the measured sensing error injection")
	lambda := flag.Float64("lambda", 10, "hopping bucket mean")
	ifRadius := flag.Float64("interference-radius", 0,
		"interference-significance radius (m): truncate interference beyond this range and resolve neighborhoods through the spatial index (0 = exact all-pairs)")
	trials := flag.Int("trials", 1, "independent topologies to run")
	workers := flag.Int("workers", 0, "concurrent trials (0 = GOMAXPROCS)")
	traceDir := flag.String("trace-dir", "", "flight-record each trial into this directory (must exist)")
	invariants := flag.Bool("invariants", false, "attach the online regulatory invariant watchdog to every trial; any violation fails the run")
	prof := profiling.AddFlags()
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		log.Printf("cellfi-sim: %v", err)
		return 1
	}
	defer stopProf()

	s, err := netsim.ParseScheme(*scheme)
	if err != nil {
		log.Printf("cellfi-sim: %v", err)
		return 1
	}
	if *aps < 1 || *clients < 1 || *trials < 1 || *epochs < 1 {
		log.Printf("cellfi-sim: -aps, -clients, -trials and -epochs must be at least 1")
		return 1
	}

	type trialResult struct {
		tp    *topo.Topology
		th    []float64
		hops  int
		alloc [][]int
	}
	var specs []runner.Spec
	for tr := 0; tr < *trials; tr++ {
		specs = append(specs, runner.Spec{
			Label: fmt.Sprintf("trial=%d", tr),
			Seed:  *seed + int64(tr)*7919,
			Run: func(c *runner.Ctx) (any, error) {
				p := topo.Paper(*aps, *clients)
				p.AreaSide = *area
				tp := topo.Generate(p, c.Seed())
				cfg := netsim.DefaultConfig(s, c.Seed())
				cfg.PackingEnabled = !*noPacking
				cfg.PerfectSensing = *perfect
				cfg.Lambda = *lambda
				if *ifRadius > 0 {
					cfg.InterferenceRadiusM = *ifRadius
					cfg.UseSpatialIndex = true
				}
				cfg.Trace = c.Recorder()

				n := netsim.New(tp, cfg)
				out := trialResult{tp: tp, th: n.Run(*epochs), hops: n.Hops}
				c.AddSteps(int64(*epochs))
				for i := range tp.APs {
					out.alloc = append(out.alloc, n.Allowed(i))
				}
				return out, nil
			},
		})
	}

	rep := runner.Run(context.Background(), "cellfi-sim", specs,
		runner.Options{Workers: *workers, TraceDir: *traceDir, Invariants: *invariants})
	if *invariants {
		for _, r := range rep.Runs {
			if r.InvariantRule != "" {
				log.Printf("cellfi-sim: trial %d (%s): invariant %s violated %d time(s), first at record %d: %s",
					r.Index, r.Label, r.InvariantRule, r.InvariantViolations, r.InvariantIndex, r.InvariantRecord)
				return 1
			}
		}
	}
	results, err := runner.Values[trialResult](rep)
	if err != nil {
		log.Printf("cellfi-sim: %v", err)
		return 1
	}
	if *traceDir != "" {
		for _, r := range rep.Runs {
			fmt.Printf("trace: %s (%d records)\n", r.TracePath, r.TraceRecords)
		}
	}

	for tr, r := range results {
		trialSeed := *seed + int64(tr)*7919
		sorted := append([]float64(nil), r.th...)
		sort.Float64s(sorted)
		cdf := stats.NewCDF(r.th)
		fmt.Printf("scheme=%s aps=%d clients/AP=%d epochs=%d seed=%d\n",
			s, *aps, *clients, *epochs, trialSeed)
		fmt.Printf("per-client throughput (Mbps): min=%.3f p25=%.3f median=%.3f p75=%.3f max=%.3f mean=%.3f\n",
			cdf.Min(), cdf.Quantile(0.25), cdf.Median(), cdf.Quantile(0.75), cdf.Max(), cdf.Mean())
		fmt.Printf("starved (<0.05 Mbps): %.1f%%   total=%.1f Mbps   controller hops=%d\n",
			cdf.FractionBelow(0.05)*100, cdf.Mean()*float64(cdf.Len()), r.hops)

		if s == netsim.SchemeCellFi || s == netsim.SchemeOracle {
			fmt.Println("\nper-cell subchannel allocation:")
			for i := range r.tp.APs {
				fmt.Printf("  cell %2d at %-18s holds %v\n", i, r.tp.APs[i], r.alloc[i])
			}
		}
		if tr < len(results)-1 {
			fmt.Println()
		}
	}
	return 0
}
