package experiments

import (
	"cellfi/internal/core"
	"cellfi/internal/lte"
	"cellfi/internal/netsim"
	"cellfi/internal/stats"
)

// HybridExtension evaluates the Section 7 proposal: centralized
// coordination inside each provider, CellFi's distributed protocol
// across providers — against plain CellFi and the full oracle.
func HybridExtension(seed int64, quick bool) Result {
	trials, epochs := 4, 25
	if quick {
		trials, epochs = 1, 10
	}
	res := sweep(Grid{Campaign: "hybrid", Arms: []Arm{SchemeArm(netsim.SchemeCellFi, nil), SchemeArm(netsim.SchemeHybrid, nil), SchemeArm(netsim.SchemeOracle, nil)},
		APs: []int{10}, Clients: []int{6}, Trials: trials, Epochs: epochs, Seeds: splitSeeds(seed, 3571)})[0]
	cf, hy, orc := res[0], res[1], res[2]

	t := &stats.Table{
		Title:   "Extension (Section 7): per-provider centralized + cross-provider distributed",
		Headers: []string{"Metric", "CellFi", "Hybrid (2 providers)", "Oracle"},
	}
	statRow(t, "Median (Mbps)", res, fmtMedian)
	statRow(t, "Mean (Mbps)", res, fmtMean)
	statRow(t, "Starved (%)", res, fmtStarved)
	t.AddRow("Distributed hops", fmtHops(cf), fmtHops(hy), "-")

	return Result{
		ID:     "hybrid",
		Title:  "Extension: hybrid control plane (Section 7)",
		Tables: []*stats.Table{t},
		Series: []stats.Series{
			cdfSeries("hybrid: CellFi throughput CDF (Mbps)", cf.Samples, 41),
			cdfSeries("hybrid: hybrid throughput CDF (Mbps)", hy.Samples, 41),
			cdfSeries("hybrid: oracle throughput CDF (Mbps)", orc.Samples, 41),
		},
		Notes: []string{
			note("hybrid starves %.1f%% vs CellFi's %.1f%% — confirming the paper's speculation that intra-provider coordination 'could further improve performance'",
				starvedPct(hy, StarveThresholdMbps), starvedPct(cf, StarveThresholdMbps)),
			note("the distributed layer is untouched; each operator only deconflicts its own cells over backhaul"),
		},
	}
}

// HoppingBaseline ablates CellFi's exponential-bucket protocol against
// memoryless random re-hopping with identical sensing — the Markovian-
// scheme family (IQ-hopping [23]) CellFi adapts.
func HoppingBaseline(seed int64, quick bool) Result {
	trials, epochs := 4, 25
	if quick {
		trials, epochs = 1, 10
	}
	res := sweep(Grid{Campaign: "hopping", Arms: []Arm{SchemeArm(netsim.SchemeCellFi, nil), SchemeArm(netsim.SchemeRandomHop, nil)},
		APs: []int{10}, Clients: []int{6}, Trials: trials, Epochs: epochs, Seeds: splitSeeds(seed, 3571)})[0]
	cf, rh := res[0], res[1]

	t := &stats.Table{
		Title:   "Ablation: exponential buckets vs memoryless random hopping",
		Headers: []string{"Metric", "CellFi (buckets)", "Random hop"},
	}
	statRow(t, "Median (Mbps)", res, fmtMedian)
	statRow(t, "Starved (%)", res, fmtStarved)
	statRow(t, "Total hops", res, fmtHops)

	return Result{
		ID:     "hopping",
		Title:  "Ablation: the bucket protocol vs naive hopping",
		Tables: []*stats.Table{t},
		Notes: []string{
			note("buckets hop %.1fx less than memoryless re-hopping (%d vs %d) — the hysteresis that lets reservations converge",
				float64(rh.Hops)/max(float64(cf.Hops), 1), cf.Hops, rh.Hops),
		},
	}
}

// UplinkExtension evaluates the Section 5 remark that "the uplink can
// be managed similarly": uplink throughput over the same TDD
// reservations, CellFi vs unmanaged LTE.
func UplinkExtension(seed int64, quick bool) Result {
	trials, epochs := 4, 20
	if quick {
		trials, epochs = 1, 10
	}
	res := sweep(Grid{Campaign: "uplink", Arms: []Arm{
		{name: "lte", scheme: netsim.SchemeLTE, uplink: true},
		{name: "cellfi", scheme: netsim.SchemeCellFi, uplink: true},
	}, APs: []int{10}, Clients: []int{6}, Trials: trials, Epochs: epochs, Seeds: splitSeeds(seed, 4219)})[0]
	lteUL, cfUL := res[0], res[1]
	t := &stats.Table{
		Title:   "Extension (Section 5): uplink over the same reservations",
		Headers: []string{"Metric", "LTE uplink", "CellFi uplink"},
	}
	statRow(t, "Median (Mbps)", res, fmtMedian)
	statRow(t, "Starved (< 10 kbps)", res, func(a ArmRun) string { return stats.Fmt(starvedPct(a, 0.01)) + "%" })
	return Result{
		ID:     "uplink",
		Title:  "Extension: uplink interference management",
		Tables: []*stats.Table{t},
		Series: []stats.Series{
			cdfSeries("uplink: LTE uplink throughput CDF (Mbps)", lteUL.Samples, 41),
			cdfSeries("uplink: CellFi uplink throughput CDF (Mbps)", cfUL.Samples, 41),
		},
		Notes: []string{
			note("the TDD reservations protect PUSCH too: CellFi's uplink starves %.1f%% vs LTE's %.1f%%",
				starvedPct(cfUL, 0.01), starvedPct(lteUL, 0.01)),
		},
	}
}

// AggregationExtension explores the Section 7 future-work item of
// channel aggregation: the same deployment run on 5, 10 and 20 MHz
// carriers (1, 2 and 3-4 aggregated TV channels). Subchannel counts
// and the IM protocol scale automatically (13 / 17 / 25 subchannels).
func AggregationExtension(seed int64, quick bool) Result {
	trials, epochs := 3, 20
	if quick {
		trials, epochs = 1, 10
	}
	bws := []lte.Bandwidth{lte.BW5MHz, lte.BW10MHz, lte.BW20MHz}
	var arms []Arm
	for _, bw := range bws {
		arms = append(arms, Arm{name: note("bw=%gMHz", float64(bw)), scheme: netsim.SchemeCellFi,
			tune: func(cfg *netsim.Config) { cfg.BW = bw }})
	}
	res := sweep(Grid{Campaign: "aggregation", Arms: arms, APs: []int{10}, Clients: []int{6}, Trials: trials, Epochs: epochs, Seeds: splitSeeds(seed, 6113)})[0]
	t := &stats.Table{
		Title:   "Extension (Section 7): carrier width via TV-channel aggregation",
		Headers: []string{"Carrier", "Subchannels", "TV channels (EU)", "Median Mbps", "Starved %"},
	}
	for bi, bw := range bws {
		t.AddRow(
			stats.Fmt(float64(bw))+" MHz",
			stats.Fmt(float64(bw.Subchannels())),
			stats.Fmt(float64(core.RequiredTVChannels(bw, 8e6))),
			fmtMedian(res[bi]), fmtStarved(res[bi]))
	}
	return Result{
		ID:     "aggregation",
		Title:  "Extension: channel aggregation (Section 7)",
		Tables: []*stats.Table{t},
		Notes: []string{
			note("median client throughput scales %.1fx from one TV channel to an aggregated 20 MHz carrier; the IM protocol needs no changes, only more subchannels",
				res[2].cdf.Median()/max(res[0].cdf.Median(), 1e-9)),
			note("wider carriers need runs of contiguous free TV channels, which the channel selector already demands (RequiredTVChannels)"),
		},
	}
}

// MobilityExtension evaluates the Section 7 roaming claim: pedestrian
// and vehicular random-waypoint clients over CellFi, with handovers
// handled by the standard strongest-cell rule. Coverage should hold
// close to the static case while shares track the moving census.
func MobilityExtension(seed int64, quick bool) Result {
	trials, epochs := 3, 30
	if quick {
		trials, epochs = 1, 15
	}
	res := sweep(Grid{Campaign: "mobility", Arms: []Arm{
		{name: "static", scheme: netsim.SchemeCellFi},
		{name: "walk", scheme: netsim.SchemeCellFi, speed: 1.5},
		{name: "drive", scheme: netsim.SchemeCellFi, speed: 15},
	}, APs: []int{10}, Clients: []int{6}, Trials: trials, Epochs: epochs, Seeds: splitSeeds(seed, 8191)})[0]
	static, walk, drive := res[0], res[1], res[2]
	fmtHandovers := func(a ArmRun) string { return stats.Fmt(float64(a.Handovers)) }

	t := &stats.Table{
		Title:   "Extension (Section 7): mobility and roaming under CellFi",
		Headers: []string{"Scenario", "Median Mbps", "Starved %", "Handovers"},
	}
	t.AddRow("Static", fmtMedian(static), fmtStarved(static), "0")
	t.AddRow("Pedestrian (1.5 m/s)", fmtMedian(walk), fmtStarved(walk), fmtHandovers(walk))
	t.AddRow("Vehicular (15 m/s)", fmtMedian(drive), fmtStarved(drive), fmtHandovers(drive))

	return Result{
		ID:     "mobility",
		Title:  "Extension: mobility and roaming (Section 7)",
		Tables: []*stats.Table{t},
		Notes: []string{
			note("vehicular clients hand over %d times yet starvation moves %.1f -> %.1f%% — the PRACH census tracks movers with no protocol additions",
				drive.Handovers, starvedPct(static, StarveThresholdMbps), starvedPct(drive, StarveThresholdMbps)),
		},
	}
}
