package experiments

import (
	"cellfi/internal/lte"
	"cellfi/internal/netsim"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
	"cellfi/internal/topo"
)

func init() {
	register("reuse", ReuseAblation)
	register("lambda", LambdaAblation)
	register("sensing", SensingAblation)
}

// coreCQIOverheadKbps returns the computed CQI overhead in kbps.
func coreCQIOverheadKbps() float64 { return lte.CQISignalingOverheadBps() / 1e3 }

// cellfiRun runs one backlogged CellFi network and returns throughputs
// plus accumulated hops. c may be nil outside a fleet.
func cellfiRun(c *runner.Ctx, tp *topo.Topology, cfg netsim.Config, epochs int) ([]float64, int) {
	n := netsim.New(tp, cfg)
	th := n.Run(epochs)
	addSteps(c, epochs)
	return th, n.Hops
}

// ReuseAblation measures the Section 5.3 channel re-use heuristic: the
// paper reports faster convergence and up to 2x throughput gain for
// exposed clients. We compare packing on/off on dense topologies.
func ReuseAblation(seed int64, quick bool) Result {
	trials, epochs := 4, 25
	if quick {
		trials, epochs = 1, 10
	}
	var onTh, offTh []float64
	var onHops, offHops int
	var onLowIdx, offLowIdx float64
	lowIdxFrac := func(n *netsim.Network) float64 {
		held, low := 0, 0
		for i := range n.Cells {
			for _, k := range n.Allowed(i) {
				held++
				if k < n.Cfg.BW.Subchannels()/2 {
					low++
				}
			}
		}
		if held == 0 {
			return 0
		}
		return float64(low) / float64(held)
	}
	type reuseTrial struct {
		onTh, offTh         []float64
		onHops, offHops     int
		onLowIdx, offLowIdx float64
	}
	for _, r := range trialFleet("reuse", trials,
		func(tr int) int64 { return seed + int64(tr) },
		func(c *runner.Ctx, tr int) reuseTrial {
			tp := topo.Generate(topo.Paper(10, 6), seed+int64(tr)*911)
			cfgOn := netsim.DefaultConfig(netsim.SchemeCellFi, c.Seed())
			nOn := netsim.New(tp, cfgOn)
			var out reuseTrial
			out.onTh = nOn.Run(epochs)
			out.onHops = nOn.Hops
			out.onLowIdx = lowIdxFrac(nOn)

			cfgOff := cfgOn
			cfgOff.PackingEnabled = false
			nOff := netsim.New(tp, cfgOff)
			out.offTh = nOff.Run(epochs)
			out.offHops = nOff.Hops
			out.offLowIdx = lowIdxFrac(nOff)
			addSteps(c, 2*epochs)
			return out
		}) {
		onTh = append(onTh, r.onTh...)
		onHops += r.onHops
		onLowIdx += r.onLowIdx
		offTh = append(offTh, r.offTh...)
		offHops += r.offHops
		offLowIdx += r.offLowIdx
	}
	onLowIdx /= float64(trials)
	offLowIdx /= float64(trials)
	on, off := stats.NewCDF(onTh), stats.NewCDF(offTh)
	t := &stats.Table{
		Title:   "Ablation: channel re-use (packing) heuristic",
		Headers: []string{"Metric", "Packing on", "Packing off"},
	}
	t.AddRow("Median throughput (Mbps)", stats.Fmt(on.Median()), stats.Fmt(off.Median()))
	t.AddRow("90th pct throughput (Mbps)", stats.Fmt(on.Quantile(0.9)), stats.Fmt(off.Quantile(0.9)))
	t.AddRow("Starved (%)", stats.Fmt(on.FractionBelow(StarveThresholdMbps)*100),
		stats.Fmt(off.FractionBelow(StarveThresholdMbps)*100))
	t.AddRow("Total hops", stats.Fmt(float64(onHops)), stats.Fmt(float64(offHops)))
	t.AddRow("Low-index concentration", stats.Fmt(onLowIdx*100)+"%", stats.Fmt(offLowIdx*100)+"%")
	return Result{
		ID:     "reuse",
		Title:  "Ablation: channel re-use heuristic (Section 5.3)",
		Tables: []*stats.Table{t},
		Notes: []string{
			note("packing concentrates reservations on low-index subchannels (%.0f%% vs %.0f%% without), the self-organization Section 5.3 describes; in dense random topologies its throughput effect is small, while exposed near-AP clients gain by overlapping harmlessly",
				onLowIdx*100, offLowIdx*100),
		},
	}
}

// LambdaAblation sweeps the exponential bucket mean: the paper "found
// lambda = 10 to be a good choice experimentally". Small lambdas churn
// (hop too eagerly); large ones react too slowly to interference.
func LambdaAblation(seed int64, quick bool) Result {
	lambdas := []float64{1, 5, 10, 20, 50}
	trials, epochs := 3, 25
	if quick {
		lambdas = []float64{1, 10, 50}
		trials, epochs = 1, 10
	}
	t := &stats.Table{
		Title:   "Ablation: hopping bucket mean (lambda)",
		Headers: []string{"Lambda", "Median Mbps", "Starved %", "Hops"},
	}
	// One leg per (lambda, trial) pair; aggregate lambda-major.
	type lambdaRun struct {
		th   []float64
		hops int
	}
	var legs []leg[lambdaRun]
	for _, l := range lambdas {
		for tr := 0; tr < trials; tr++ {
			legs = append(legs, leg[lambdaRun]{
				label: note("lambda/l=%g/trial=%d", l, tr),
				seed:  seed + int64(tr),
				run: func(c *runner.Ctx) lambdaRun {
					tp := topo.Generate(topo.Paper(10, 6), seed+int64(tr)*733)
					cfg := netsim.DefaultConfig(netsim.SchemeCellFi, c.Seed())
					cfg.Lambda = l
					r, h := cellfiRun(c, tp, cfg, epochs)
					return lambdaRun{th: r, hops: h}
				},
			})
		}
	}
	runs := fleet("lambda", legs)
	for li := range lambdas {
		var th []float64
		hops := 0
		for tr := 0; tr < trials; tr++ {
			r := runs[li*trials+tr]
			th = append(th, r.th...)
			hops += r.hops
		}
		c := stats.NewCDF(th)
		t.AddRow(stats.Fmt(lambdas[li]), stats.Fmt(c.Median()),
			stats.Fmt(c.FractionBelow(StarveThresholdMbps)*100), stats.Fmt(float64(hops)))
	}
	return Result{
		ID:     "lambda",
		Title:  "Ablation: bucket mean lambda (paper uses 10)",
		Tables: []*stats.Table{t},
		Notes:  []string{note("small lambda drains buckets instantly and churns; large lambda tolerates persistent interference too long")},
	}
}

// SensingAblation isolates the cost of imperfect sensing: the measured
// 80% detection / 2% false positives versus a perfect-sensing CellFi.
func SensingAblation(seed int64, quick bool) Result {
	trials, epochs := 3, 25
	if quick {
		trials, epochs = 1, 10
	}
	var measTh, perfTh []float64
	type sensingTrial struct {
		meas, perf []float64
	}
	for _, r := range trialFleet("sensing", trials,
		func(tr int) int64 { return seed + int64(tr) },
		func(c *runner.Ctx, tr int) sensingTrial {
			tp := topo.Generate(topo.Paper(10, 6), seed+int64(tr)*577)
			cfg := netsim.DefaultConfig(netsim.SchemeCellFi, c.Seed())
			var out sensingTrial
			out.meas, _ = cellfiRun(c, tp, cfg, epochs)

			cfg.PerfectSensing = true
			out.perf, _ = cellfiRun(c, tp, cfg, epochs)
			return out
		}) {
		measTh = append(measTh, r.meas...)
		perfTh = append(perfTh, r.perf...)
	}
	m, p := stats.NewCDF(measTh), stats.NewCDF(perfTh)
	t := &stats.Table{
		Title:   "Ablation: measured vs perfect sensing",
		Headers: []string{"Metric", "Measured (80%/2%)", "Perfect"},
	}
	t.AddRow("Median throughput (Mbps)", stats.Fmt(m.Median()), stats.Fmt(p.Median()))
	t.AddRow("Starved (%)", stats.Fmt(m.FractionBelow(StarveThresholdMbps)*100),
		stats.Fmt(p.FractionBelow(StarveThresholdMbps)*100))
	return Result{
		ID:     "sensing",
		Title:  "Ablation: sensing imperfection injection (Section 6.3.2)",
		Tables: []*stats.Table{t},
		Notes:  []string{note("the measured error rates cost little — the detector's conservatism (Section 5.2) absorbs them")},
	}
}
