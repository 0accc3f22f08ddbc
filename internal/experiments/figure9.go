package experiments

import (
	"time"

	"cellfi/internal/netsim"
	"cellfi/internal/propagation"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
	"cellfi/internal/topo"
	"cellfi/internal/traffic"
	"cellfi/internal/wifi"
)

// StarveThresholdMbps defines a "starved"/unconnected client: average
// throughput below 50 kbps under a backlogged load.
const StarveThresholdMbps = 0.05

// fig9Arms are the systems compared in Figure 9, in column order; the
// arm names are the column headers.
func fig9Arms(wifiDur time.Duration, withOracle bool) []arm {
	arms := []arm{
		// 802.11af on a 6 MHz TV channel (the paper's Wi-Fi arm).
		{name: "802.11af", custom: func(c *runner.Ctx, tp *topo.Topology, seed int64) []float64 {
			return wifiTrial(c, tp, wifi.Params11af(), propagation.DefaultUrban(seed), 30, seed, wifiDur, 100*time.Millisecond)
		}},
		{name: "LTE", scheme: netsim.SchemeLTE},
		{name: "CellFi", scheme: netsim.SchemeCellFi},
	}
	if withOracle {
		arms = append(arms, arm{name: "Oracle", scheme: netsim.SchemeOracle})
	}
	return arms
}

// connectedPct is each arm's share of clients at or above barMbps.
func connectedPct(arms []armRun, barMbps float64) []float64 {
	out := make([]float64, len(arms))
	for i, a := range arms {
		out[i] = (1 - a.cdf.FractionBelow(barMbps)) * 100
	}
	return out
}

// Figure9a reproduces coverage versus density: the fraction of
// connected (non-starved) clients as the number of APs in the
// 2 km x 2 km area grows from 6 to 14, with 6 clients per AP.
func Figure9a(seed int64, quick bool) Result {
	densities := []int{6, 8, 10, 12, 14}
	trials, epochs, wifiDur := 3, 20, 2*time.Second
	if quick {
		densities = []int{6, 14}
		trials, epochs, wifiDur = 1, 10, 500*time.Millisecond
	}
	arms := fig9Arms(wifiDur, false)
	t := &stats.Table{
		Title:   "Figure 9(a): fraction of connected users (%) vs density",
		Headers: []string{"APs", "802.11af", "LTE", "CellFi"},
	}
	series := make([]stats.Series, len(arms))
	for ai, a := range arms {
		series[ai].Name = note("fig9a: %s connected %%", a.name)
	}
	var last []float64
	for _, aps := range densities {
		last = connectedPct(sweep(note("fig9a/aps=%d", aps), arms, trials, epochs,
			topo.Paper(aps, 6), sameSeeds(seed+int64(aps), 7919)), StarveThresholdMbps)
		row := []string{stats.Fmt(float64(aps))}
		for ai, pct := range last {
			row = append(row, stats.Fmt(pct))
			series[ai].Points = append(series[ai].Points, [2]float64{float64(aps), pct})
		}
		t.AddRow(row...)
	}
	// The paper's denser variant: 16 clients per AP at 14 APs ("CellFi
	// still offers coverage to more than 80% of users, an increase of
	// 32% and 8% compared to Wi-Fi and LTE").
	t16 := &stats.Table{
		Title:   "Densest scenario: 14 APs x 16 clients",
		Headers: []string{"System", "Connected %"},
	}
	// With 224 users on one 5 MHz channel the perfectly-fair share
	// is ~55 kbps, so the 6-client 50 kbps threshold would label
	// half of a perfect network "starved". Scale the connectivity
	// bar with the load (50 kbps x 6/16 ~ 19 kbps).
	dense := connectedPct(sweep("fig9a-dense", arms, min(trials, 2), epochs,
		topo.Paper(14, 16), sameSeeds(seed, 52361)), StarveThresholdMbps*6/16)
	for ai, a := range arms {
		t16.AddRow(a.name, stats.Fmt(dense[ai]))
	}

	return Result{
		ID:     "fig9a",
		Title:  "Figure 9(a): coverage vs density",
		Tables: []*stats.Table{t, t16},
		Series: series,
		Notes: []string{
			note("at the densest point CellFi connects %.0f%% vs Wi-Fi %.0f%% and LTE %.0f%% (paper: +37%% vs Wi-Fi, +16%% vs LTE at 14 APs)",
				last[2], last[0], last[1]),
			note("with 16 clients per AP (224 users on 5 MHz) CellFi still connects %.0f%% (paper: more than 80%%) vs Wi-Fi %.0f%% and LTE %.0f%%",
				dense[2], dense[0], dense[1]),
		},
	}
}

// Figure9b reproduces the client-throughput CDFs in the densest
// scenario (14 APs, 6 clients each: 84 clients on one 5 MHz channel),
// including the centralized oracle.
func Figure9b(seed int64, quick bool) Result {
	trials, epochs, wifiDur := 5, 25, 2*time.Second
	if quick {
		trials, epochs, wifiDur = 1, 10, 500*time.Millisecond
	}
	arms := fig9Arms(wifiDur, true)
	res := sweep("fig9b", arms, trials, epochs, topo.Paper(14, 6), sameSeeds(seed, 104729))
	w, l, c, o := res[0].cdf, res[1].cdf, res[2].cdf, res[3].cdf

	t := &stats.Table{
		Title:   "Figure 9(b): client throughput, 14 APs x 6 clients on 5 MHz",
		Headers: []string{"Metric", "802.11af", "LTE", "CellFi", "Oracle"},
	}
	statRow(t, "Median (Mbps)", res, fmtMedian)
	statRow(t, "Mean (Mbps)", res, fmtMean)
	statRow(t, "Starved", res, func(a armRun) string { return fmtStarved(a) + "%" })
	statRow(t, "Jain fairness", res, func(a armRun) string { return stats.Fmt(stats.JainIndex(a.samples)) })

	starvedReductionWifi := 1 - c.FractionBelow(StarveThresholdMbps)/maxf(w.FractionBelow(StarveThresholdMbps), 1e-9)
	starvedReductionLTE := 1 - c.FractionBelow(StarveThresholdMbps)/maxf(l.FractionBelow(StarveThresholdMbps), 1e-9)

	series := make([]stats.Series, len(arms))
	for ai, a := range arms {
		series[ai] = cdfSeries(note("fig9b: %s throughput CDF (Mbps)", a.name), res[ai].samples, 41)
	}
	return Result{
		ID:     "fig9b",
		Title:  "Figure 9(b): throughput CDFs vs the oracle",
		Tables: []*stats.Table{t},
		Series: series,
		Notes: []string{
			note("CellFi cuts starved clients by %.0f%% vs Wi-Fi and %.0f%% vs LTE (paper: 70-90%%)",
				starvedReductionWifi*100, starvedReductionLTE*100),
			note("CellFi median %.2f Mbps vs Wi-Fi %.2f (paper: roughly 2x at the median) and tracks the oracle's %.2f",
				c.Median(), w.Median(), o.Median()),
		},
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Figure9c reproduces the web-workload page-load-time comparison:
// CellFi and LTE run on the fluid simulator with per-client page
// arrivals; 802.11af runs the same workload through the event-driven
// CSMA simulator.
func Figure9c(seed int64, quick bool) Result {
	aps, clients := 10, 6
	durS := 120
	trials := 2
	if quick {
		durS, trials = 30, 1
	}

	// The workload must stress the network for the MAC differences to
	// matter (the paper's dense web scenario): a 10 s mean think time
	// over 60 clients offers ~8 Mbps, which exceeds the single
	// collision domain 802.11af sustains over a 2 km area but sits
	// within the LTE schemes' spatial-reuse capacity.
	web := traffic.DefaultWebParams()
	web.ThinkTimeMean = 10 * time.Second
	// Every arm of a trial regenerates the topology from the trial seed.
	schemes := []netsim.Scheme{netsim.SchemeLTE, netsim.SchemeCellFi}
	res := pool(grid("fig9c", []string{"wifi", "lte", "cellfi"}, trials,
		func(tr int) int64 { return seed + int64(tr)*60013 },
		func(c *runner.Ctx, ai, tr int) armRun {
			tp := topo.Generate(topo.Paper(aps, clients), c.Seed())
			if ai == 0 {
				return armRun{samples: wifiWebPageLoads(c, tp, web, c.Seed(), durS)}
			}
			return armRun{samples: netsimWebPageLoads(c, tp, web, schemes[ai-1], c.Seed(), durS)}
		}))
	w, l, c := res[0].cdf, res[1].cdf, res[2].cdf

	t := &stats.Table{
		Title:   "Figure 9(c): page load time (s), web workload",
		Headers: []string{"Metric", "802.11af", "LTE", "CellFi"},
	}
	statRow(t, "Median (s)", res, fmtMedian)
	statRow(t, "90th pct (s)", res, func(a armRun) string { return stats.Fmt(a.cdf.Quantile(0.9)) })
	statRow(t, "Pages (incl. censored)", res, func(a armRun) string { return stats.Fmt(float64(a.cdf.Len())) })

	speedup := w.Median() / maxf(c.Median(), 1e-9)
	return Result{
		ID:     "fig9c",
		Title:  "Figure 9(c): application-level performance",
		Tables: []*stats.Table{t},
		Series: []stats.Series{
			cdfSeries("fig9c: 802.11af page load time CDF (s)", res[0].samples, 41),
			cdfSeries("fig9c: LTE page load time CDF (s)", res[1].samples, 41),
			cdfSeries("fig9c: CellFi page load time CDF (s)", res[2].samples, 41),
		},
		Notes: []string{
			note("CellFi median page load %.1fx faster than 802.11af (paper: 2.3x)", speedup),
			note("CellFi vs LTE median: %.2f s vs %.2f s — direction matches the paper (CellFi ahead, LTE's tail far worse); our unmanaged-LTE arm degrades harder than the paper's because every busy cell occupies the whole carrier at full duty in the fluid model",
				c.Median(), l.Median()),
		},
	}
}

// netsimWebPageLoads drives the fluid simulator with the web workload
// and returns completed page load times in seconds.
func netsimWebPageLoads(c *runner.Ctx, tp *topo.Topology, web traffic.WebParams, scheme netsim.Scheme, seed int64, durS int) []float64 {
	addSteps(c, durS)
	n := netsim.New(tp, netsim.DefaultConfig(scheme, seed))
	gens := make([]*traffic.WebGenerator, len(n.Clients))
	next := make([]traffic.Page, len(n.Clients))
	tracker := traffic.NewFlowTracker()
	for i := range gens {
		gens[i] = traffic.NewWebGenerator(web, newSeededRand(seed+int64(i)*31+7))
		next[i] = gens[i].NextPage(i, 0)
	}
	for e := 0; e < durS; e++ {
		now := time.Duration(e) * time.Second
		for i := range n.Clients {
			for next[i].Arrival <= now {
				for _, f := range next[i].Flows {
					tracker.Enqueue(f)
					n.AddBits(i, f.Bits)
				}
				next[i] = gens[i].NextPage(i, next[i].Arrival)
			}
		}
		before := make([]int64, len(n.Clients))
		for i, c := range n.Clients {
			before[i] = c.DeliveredBits
		}
		n.Step()
		// Interpolate completions inside the epoch (service is fluid)
		// so page-load times are not quantized to whole seconds.
		const subSteps = 5
		for s := 1; s <= subSteps; s++ {
			at := now + time.Duration(s)*time.Second/subSteps
			for i, c := range n.Clients {
				served := c.DeliveredBits - before[i]
				tracker.Progress(i, before[i]+served*int64(s)/subSteps, at)
			}
		}
	}
	return pageLoadSamples(tracker, time.Duration(durS)*time.Second)
}

// pageLoadSamples builds the page-load-time distribution the paper
// plots: completed pages at their true load time, and pages still
// outstanding at the horizon censored at their current age (the CDF
// plateau of Figure 9c). Pages arriving in the final 15 s are excluded
// to avoid trivially censoring fresh arrivals.
func pageLoadSamples(tracker *traffic.FlowTracker, horizon time.Duration) []float64 {
	cutoff := horizon - 15*time.Second
	var out []float64
	for _, p := range tracker.CompletedPages() {
		if p.Arrival <= cutoff {
			out = append(out, p.LoadTime().Seconds())
		}
	}
	for _, p := range tracker.OutstandingPages() {
		if p.Arrival <= cutoff {
			out = append(out, (horizon - p.Arrival).Seconds())
		}
	}
	return out
}

// wifiWebPageLoads drives the CSMA simulator with the same workload.
// Page arrivals are quantized to whole seconds exactly as the fluid
// simulator's epochs quantize them, so neither side gets a head start.
func wifiWebPageLoads(c *runner.Ctx, tp *topo.Topology, web traffic.WebParams, seed int64, durS int) []float64 {
	eng := fleetEngine(c, seed)
	n := wifiNet(eng, tp, wifi.Params11af(), propagation.DefaultUrban(seed), 30)
	tracker := traffic.NewFlowTracker()
	type pair struct {
		ap, cl *wifi.Node
	}
	var pairs []pair
	for _, ap := range n.APs() {
		for _, cl := range ap.Clients() {
			pairs = append(pairs, pair{ap, cl})
		}
	}
	for i := range pairs {
		gen := traffic.NewWebGenerator(web, newSeededRand(seed+int64(i)*31+7))
		var schedule func(p traffic.Page)
		schedule = func(p traffic.Page) {
			// Quantize the enqueue instant to the next whole second,
			// mirroring the fluid simulator's epoch boundaries.
			enqueueAt := p.Arrival.Truncate(time.Second)
			if enqueueAt < p.Arrival {
				enqueueAt += time.Second
			}
			delay := enqueueAt - eng.Now()
			if delay < 0 {
				delay = 0
			}
			eng.After(delay, func() {
				for _, f := range p.Flows {
					f.ClientID = i
					tracker.Enqueue(f)
					pairs[i].ap.Enqueue(pairs[i].cl, f.Bits)
				}
				schedule(gen.NextPage(i, p.Arrival))
			})
		}
		schedule(gen.NextPage(i, 0))
	}
	eng.EveryAt(100*time.Millisecond, 100*time.Millisecond, func() {
		for i := range pairs {
			tracker.Progress(i, pairs[i].ap.DeliveredBits(pairs[i].cl), eng.Now())
		}
	})
	eng.Run(time.Duration(durS) * time.Second)
	return pageLoadSamples(tracker, time.Duration(durS)*time.Second)
}
