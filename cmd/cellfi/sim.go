package main

import (
	"context"
	"fmt"
	"io"

	"cellfi/internal/netsim"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
	"cellfi/internal/topo"
)

// runSim runs one large-scale interference-management scenario and
// prints per-client results — the workhorse behind the Figure 9
// experiments, exposed with knobs.
//
// With -trials > 1 the scenario repeats over independently seeded
// topologies, fanned across -workers goroutines; per-trial summaries
// print in trial order regardless of scheduling. With -trace-dir set,
// each trial flight-records its interference-management decisions to
// DIR/run<trial>-trial_<n>.trace for `cellfi trace` to inspect.
func runSim(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlags("sim", stderr)
	scheme := fs.String("scheme", "cellfi", "lte, cellfi, oracle, random-hop or hybrid")
	aps := fs.Int("aps", 14, "number of access points")
	clients := fs.Int("clients", 6, "clients per AP")
	epochs := fs.Int("epochs", 30, "1-second IM epochs to simulate")
	seed := fs.Int64("seed", 1, "random seed")
	area := fs.Float64("area", 2000, "area side (m)")
	noPacking := fs.Bool("no-packing", false, "disable the channel re-use heuristic")
	perfect := fs.Bool("perfect-sensing", false, "disable the measured sensing error injection")
	lambda := fs.Float64("lambda", 10, "hopping bucket mean")
	ifRadius := fs.Float64("interference-radius", 0,
		"interference-significance radius (m): truncate interference beyond this range and resolve neighborhoods through the grid (0 = exact all-pairs)")
	trials := fs.Int("trials", 1, "independent topologies to run")
	workers := fs.Int("workers", 0, "concurrent trials (0 = GOMAXPROCS)")
	traceDir := fs.String("trace-dir", "", "flight-record each trial into this directory (must exist)")
	invariants := fs.Bool("invariants", false, "attach the online regulatory invariant watchdog to every trial; any violation fails the run")
	if code, ok := parse(fs, args, 0); !ok {
		return code
	}
	s, err := netsim.ParseScheme(*scheme)
	if err != nil {
		return fail(fs, exitUsage, "%v", err)
	}
	if *aps < 1 || *clients < 1 || *trials < 1 || *epochs < 1 {
		return fail(fs, exitUsage, "-aps, -clients, -trials and -epochs must be at least 1")
	}
	if *area <= 0 || *lambda <= 0 {
		return fail(fs, exitUsage, "-area and -lambda must be positive")
	}
	if *ifRadius < 0 {
		return fail(fs, exitUsage, "-interference-radius must not be negative")
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
				cfg.InterferenceRadiusM = *ifRadius
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

	rep := runner.Run(ctx, "cellfi sim", specs,
		runner.Options{Workers: *workers, TraceDir: *traceDir, Invariants: *invariants})
	if *invariants {
		for _, r := range rep.Runs {
			if r.InvariantRule != "" {
				return fail(fs, exitFailure, "trial %d (%s): invariant %s violated %d time(s), first at record %d: %s",
					r.Index, r.Label, r.InvariantRule, r.InvariantViolations, r.InvariantIndex, r.InvariantRecord)
			}
		}
	}
	results, err := runner.Values[trialResult](rep)
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}
	if *traceDir != "" {
		for _, r := range rep.Runs {
			fmt.Fprintf(stdout, "trace: %s (%d records)\n", r.TracePath, r.TraceRecords)
		}
	}

	for tr, r := range results {
		trialSeed := *seed + int64(tr)*7919
		cdf := stats.NewCDF(r.th)
		fmt.Fprintf(stdout, "scheme=%s aps=%d clients/AP=%d epochs=%d seed=%d\n",
			s, *aps, *clients, *epochs, trialSeed)
		fmt.Fprintf(stdout, "per-client throughput (Mbps): min=%.3f p25=%.3f median=%.3f p75=%.3f max=%.3f mean=%.3f\n",
			cdf.Min(), cdf.Quantile(0.25), cdf.Median(), cdf.Quantile(0.75), cdf.Max(), cdf.Mean())
		fmt.Fprintf(stdout, "starved (<0.05 Mbps): %.1f%%   total=%.1f Mbps   controller hops=%d\n",
			cdf.FractionBelow(0.05)*100, cdf.Mean()*float64(cdf.Len()), r.hops)

		if s == netsim.SchemeCellFi || s == netsim.SchemeOracle {
			fmt.Fprintln(stdout, "\nper-cell subchannel allocation:")
			for i := range r.tp.APs {
				fmt.Fprintf(stdout, "  cell %2d at %-18s holds %v\n", i, r.tp.APs[i], r.alloc[i])
			}
		}
		if tr < len(results)-1 {
			fmt.Fprintln(stdout)
		}
	}
	return 0
}
