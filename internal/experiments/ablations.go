package experiments

import (
	"cellfi/internal/lte"
	"cellfi/internal/netsim"
	"cellfi/internal/stats"
)

// coreCQIOverheadKbps returns the computed CQI overhead in kbps.
func coreCQIOverheadKbps() float64 { return lte.CQISignalingOverheadBps() / 1e3 }

// ReuseAblation measures the Section 5.3 channel re-use heuristic: the
// paper reports faster convergence and up to 2x throughput gain for
// exposed clients. We compare packing on/off on dense topologies.
func ReuseAblation(seed int64, quick bool) Result {
	trials, epochs := 4, 25
	if quick {
		trials, epochs = 1, 10
	}
	res := sweep(Grid{Campaign: "reuse", Arms: []Arm{
		{name: "packing-on", scheme: netsim.SchemeCellFi},
		{name: "packing-off", scheme: netsim.SchemeCellFi, tune: func(cfg *netsim.Config) { cfg.PackingEnabled = false }},
	}, APs: []int{10}, Clients: []int{6}, Trials: trials, Epochs: epochs, Seeds: splitSeeds(seed, 911)})[0]
	t := &stats.Table{
		Title:   "Ablation: channel re-use (packing) heuristic",
		Headers: []string{"Metric", "Packing on", "Packing off"},
	}
	statRow(t, "Median throughput (Mbps)", res, fmtMedian)
	statRow(t, "90th pct throughput (Mbps)", res, func(a ArmRun) string { return stats.Fmt(a.cdf.Quantile(0.9)) })
	statRow(t, "Starved (%)", res, fmtStarved)
	statRow(t, "Total hops", res, fmtHops)
	statRow(t, "Low-index concentration", res, func(a ArmRun) string { return stats.Fmt(a.LowIdx*100) + "%" })
	return Result{
		ID:     "reuse",
		Title:  "Ablation: channel re-use heuristic (Section 5.3)",
		Tables: []*stats.Table{t},
		Notes: []string{
			note("packing concentrates reservations on low-index subchannels (%.0f%% vs %.0f%% without), the self-organization Section 5.3 describes; in dense random topologies its throughput effect is small, while exposed near-AP clients gain by overlapping harmlessly",
				res[0].LowIdx*100, res[1].LowIdx*100),
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
	var arms []Arm
	for _, l := range lambdas {
		arms = append(arms, Arm{name: note("l=%g", l), scheme: netsim.SchemeCellFi,
			tune: func(cfg *netsim.Config) { cfg.Lambda = l }})
	}
	t := &stats.Table{
		Title:   "Ablation: hopping bucket mean (lambda)",
		Headers: []string{"Lambda", "Median Mbps", "Starved %", "Hops"},
	}
	for li, a := range sweep(Grid{Campaign: "lambda", Arms: arms, APs: []int{10}, Clients: []int{6}, Trials: trials, Epochs: epochs, Seeds: splitSeeds(seed, 733)})[0] {
		t.AddRow(stats.Fmt(lambdas[li]), fmtMedian(a), fmtStarved(a), fmtHops(a))
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
	res := sweep(Grid{Campaign: "sensing", Arms: []Arm{
		{name: "measured", scheme: netsim.SchemeCellFi},
		{name: "perfect", scheme: netsim.SchemeCellFi, tune: func(cfg *netsim.Config) { cfg.PerfectSensing = true }},
	}, APs: []int{10}, Clients: []int{6}, Trials: trials, Epochs: epochs, Seeds: splitSeeds(seed, 577)})[0]
	t := &stats.Table{
		Title:   "Ablation: measured vs perfect sensing",
		Headers: []string{"Metric", "Measured (80%/2%)", "Perfect"},
	}
	statRow(t, "Median throughput (Mbps)", res, fmtMedian)
	statRow(t, "Starved (%)", res, fmtStarved)
	return Result{
		ID:     "sensing",
		Title:  "Ablation: sensing imperfection injection (Section 6.3.2)",
		Tables: []*stats.Table{t},
		Notes:  []string{note("the measured error rates cost little — the detector's conservatism (Section 5.2) absorbs them")},
	}
}
