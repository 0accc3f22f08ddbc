package experiments

import (
	"cellfi/internal/core"
	"cellfi/internal/lte"
	"cellfi/internal/netsim"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
	"cellfi/internal/topo"
)

func init() {
	register("hybrid", HybridExtension)
	register("hopping", HoppingBaseline)
	register("uplink", UplinkExtension)
	register("aggregation", AggregationExtension)
	register("mobility", MobilityExtension)
}

// schemeSweep runs several schemes over common topologies and returns
// per-scheme client throughputs plus hop counts. Trials fan out as
// fleet legs; each leg runs every scheme on its shared topology.
func schemeSweep(campaign string, schemes []netsim.Scheme, seed int64, trials, epochs, aps, clients int) (map[netsim.Scheme][]float64, map[netsim.Scheme]int) {
	type sweepTrial struct {
		th   map[netsim.Scheme][]float64
		hops map[netsim.Scheme]int
	}
	th := map[netsim.Scheme][]float64{}
	hops := map[netsim.Scheme]int{}
	for _, r := range trialFleet(campaign, trials,
		func(tr int) int64 { return seed + int64(tr) },
		func(c *runner.Ctx, tr int) sweepTrial {
			tp := topo.Generate(topo.Paper(aps, clients), seed+int64(tr)*3571)
			out := sweepTrial{th: map[netsim.Scheme][]float64{}, hops: map[netsim.Scheme]int{}}
			for _, s := range schemes {
				n := netsim.New(tp, netsim.DefaultConfig(s, c.Seed()))
				out.th[s] = n.Run(epochs)
				out.hops[s] = n.Hops
				addSteps(c, epochs)
			}
			return out
		}) {
		for _, s := range schemes {
			th[s] = append(th[s], r.th[s]...)
			hops[s] += r.hops[s]
		}
	}
	return th, hops
}

// HybridExtension evaluates the Section 7 proposal: centralized
// coordination inside each provider, CellFi's distributed protocol
// across providers — against plain CellFi and the full oracle.
func HybridExtension(seed int64, quick bool) Result {
	trials, epochs := 4, 25
	if quick {
		trials, epochs = 1, 10
	}
	schemes := []netsim.Scheme{netsim.SchemeCellFi, netsim.SchemeHybrid, netsim.SchemeOracle}
	th, hops := schemeSweep("hybrid", schemes, seed, trials, epochs, 10, 6)

	t := &stats.Table{
		Title:   "Extension (Section 7): per-provider centralized + cross-provider distributed",
		Headers: []string{"Metric", "CellFi", "Hybrid (2 providers)", "Oracle"},
	}
	row := func(name string, f func(c *stats.CDF) string) {
		t.AddRow(name,
			f(stats.NewCDF(th[netsim.SchemeCellFi])),
			f(stats.NewCDF(th[netsim.SchemeHybrid])),
			f(stats.NewCDF(th[netsim.SchemeOracle])))
	}
	row("Median (Mbps)", func(c *stats.CDF) string { return stats.Fmt(c.Median()) })
	row("Mean (Mbps)", func(c *stats.CDF) string { return stats.Fmt(c.Mean()) })
	row("Starved (%)", func(c *stats.CDF) string {
		return stats.Fmt(c.FractionBelow(StarveThresholdMbps) * 100)
	})
	t.AddRow("Distributed hops",
		stats.Fmt(float64(hops[netsim.SchemeCellFi])),
		stats.Fmt(float64(hops[netsim.SchemeHybrid])),
		"-")

	cf := stats.NewCDF(th[netsim.SchemeCellFi])
	hy := stats.NewCDF(th[netsim.SchemeHybrid])
	return Result{
		ID:     "hybrid",
		Title:  "Extension: hybrid control plane (Section 7)",
		Tables: []*stats.Table{t},
		Series: []stats.Series{
			cdfSeries("hybrid: CellFi throughput CDF (Mbps)", th[netsim.SchemeCellFi], 41),
			cdfSeries("hybrid: hybrid throughput CDF (Mbps)", th[netsim.SchemeHybrid], 41),
			cdfSeries("hybrid: oracle throughput CDF (Mbps)", th[netsim.SchemeOracle], 41),
		},
		Notes: []string{
			note("hybrid starves %.1f%% vs CellFi's %.1f%% — confirming the paper's speculation that intra-provider coordination 'could further improve performance'",
				hy.FractionBelow(StarveThresholdMbps)*100, cf.FractionBelow(StarveThresholdMbps)*100),
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
	schemes := []netsim.Scheme{netsim.SchemeCellFi, netsim.SchemeRandomHop}
	th, hops := schemeSweep("hopping", schemes, seed, trials, epochs, 10, 6)

	cf := stats.NewCDF(th[netsim.SchemeCellFi])
	rh := stats.NewCDF(th[netsim.SchemeRandomHop])
	t := &stats.Table{
		Title:   "Ablation: exponential buckets vs memoryless random hopping",
		Headers: []string{"Metric", "CellFi (buckets)", "Random hop"},
	}
	t.AddRow("Median (Mbps)", stats.Fmt(cf.Median()), stats.Fmt(rh.Median()))
	t.AddRow("Starved (%)", stats.Fmt(cf.FractionBelow(StarveThresholdMbps)*100),
		stats.Fmt(rh.FractionBelow(StarveThresholdMbps)*100))
	t.AddRow("Total hops", stats.Fmt(float64(hops[netsim.SchemeCellFi])),
		stats.Fmt(float64(hops[netsim.SchemeRandomHop])))

	return Result{
		ID:     "hopping",
		Title:  "Ablation: the bucket protocol vs naive hopping",
		Tables: []*stats.Table{t},
		Notes: []string{
			note("buckets hop %.1fx less than memoryless re-hopping (%d vs %d) — the hysteresis that lets reservations converge",
				float64(hops[netsim.SchemeRandomHop])/maxf(float64(hops[netsim.SchemeCellFi]), 1),
				hops[netsim.SchemeCellFi], hops[netsim.SchemeRandomHop]),
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
	ulSchemes := []netsim.Scheme{netsim.SchemeLTE, netsim.SchemeCellFi}
	th := map[netsim.Scheme][]float64{}
	for _, r := range trialFleet("uplink", trials,
		func(tr int) int64 { return seed + int64(tr) },
		func(c *runner.Ctx, tr int) map[netsim.Scheme][]float64 {
			tp := topo.Generate(topo.Paper(10, 6), seed+int64(tr)*4219)
			out := map[netsim.Scheme][]float64{}
			for _, s := range ulSchemes {
				n := netsim.New(tp, netsim.DefaultConfig(s, c.Seed()))
				out[s] = n.UplinkThroughputs(epochs)
				addSteps(c, epochs)
			}
			return out
		}) {
		for _, s := range ulSchemes {
			th[s] = append(th[s], r[s]...)
		}
	}
	lteCDF := stats.NewCDF(th[netsim.SchemeLTE])
	cfCDF := stats.NewCDF(th[netsim.SchemeCellFi])
	t := &stats.Table{
		Title:   "Extension (Section 5): uplink over the same reservations",
		Headers: []string{"Metric", "LTE uplink", "CellFi uplink"},
	}
	t.AddRow("Median (Mbps)", stats.Fmt(lteCDF.Median()), stats.Fmt(cfCDF.Median()))
	t.AddRow("Starved (< 10 kbps)", stats.Fmt(lteCDF.FractionBelow(0.01)*100)+"%",
		stats.Fmt(cfCDF.FractionBelow(0.01)*100)+"%")
	return Result{
		ID:     "uplink",
		Title:  "Extension: uplink interference management",
		Tables: []*stats.Table{t},
		Series: []stats.Series{
			cdfSeries("uplink: LTE uplink throughput CDF (Mbps)", th[netsim.SchemeLTE], 41),
			cdfSeries("uplink: CellFi uplink throughput CDF (Mbps)", th[netsim.SchemeCellFi], 41),
		},
		Notes: []string{
			note("the TDD reservations protect PUSCH too: CellFi's uplink starves %.1f%% vs LTE's %.1f%%",
				cfCDF.FractionBelow(0.01)*100, lteCDF.FractionBelow(0.01)*100),
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
	t := &stats.Table{
		Title:   "Extension (Section 7): carrier width via TV-channel aggregation",
		Headers: []string{"Carrier", "Subchannels", "TV channels (EU)", "Median Mbps", "Starved %"},
	}
	// One leg per (bandwidth, trial); aggregate bandwidth-major.
	var aggLegs []leg[[]float64]
	for _, bw := range bws {
		for tr := 0; tr < trials; tr++ {
			aggLegs = append(aggLegs, leg[[]float64]{
				label: note("aggregation/bw=%gMHz/trial=%d", float64(bw), tr),
				seed:  seed + int64(tr),
				run: func(c *runner.Ctx) []float64 {
					tp := topo.Generate(topo.Paper(10, 6), seed+int64(tr)*6113)
					cfg := netsim.DefaultConfig(netsim.SchemeCellFi, c.Seed())
					cfg.BW = bw
					n := netsim.New(tp, cfg)
					th := n.Run(epochs)
					addSteps(c, epochs)
					return th
				},
			})
		}
	}
	aggRuns := fleet("aggregation", aggLegs)
	medians := map[lte.Bandwidth]float64{}
	for bi, bw := range bws {
		var th []float64
		for tr := 0; tr < trials; tr++ {
			th = append(th, aggRuns[bi*trials+tr]...)
		}
		c := stats.NewCDF(th)
		medians[bw] = c.Median()
		t.AddRow(
			stats.Fmt(float64(bw))+" MHz",
			stats.Fmt(float64(bw.Subchannels())),
			stats.Fmt(float64(core.RequiredTVChannels(bw, 8e6))),
			stats.Fmt(c.Median()),
			stats.Fmt(c.FractionBelow(StarveThresholdMbps)*100))
	}
	return Result{
		ID:     "aggregation",
		Title:  "Extension: channel aggregation (Section 7)",
		Tables: []*stats.Table{t},
		Notes: []string{
			note("median client throughput scales %.1fx from one TV channel to an aggregated 20 MHz carrier; the IM protocol needs no changes, only more subchannels",
				medians[lte.BW20MHz]/maxf(medians[lte.BW5MHz], 1e-9)),
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
	type outcome struct {
		starved   float64
		median    float64
		handovers int
	}
	type mobilityTrial struct {
		th        []float64
		handovers int
	}
	run := func(name string, speed float64) outcome {
		var th []float64
		ho := 0
		for _, r := range trialFleet("mobility/"+name, trials,
			func(tr int) int64 { return seed + int64(tr) },
			func(c *runner.Ctx, tr int) mobilityTrial {
				tp := topo.Generate(topo.Paper(10, 6), seed+int64(tr)*8191)
				n := netsim.New(tp, netsim.DefaultConfig(netsim.SchemeCellFi, c.Seed()))
				if speed > 0 {
					cfg := netsim.DefaultMobility()
					cfg.SpeedMps = speed
					n.EnableMobility(cfg)
				}
				out := mobilityTrial{th: n.Run(epochs), handovers: n.Handovers()}
				addSteps(c, epochs)
				return out
			}) {
			th = append(th, r.th...)
			ho += r.handovers
		}
		c := stats.NewCDF(th)
		return outcome{
			starved:   c.FractionBelow(StarveThresholdMbps) * 100,
			median:    c.Median(),
			handovers: ho,
		}
	}
	static := run("static", 0)
	walk := run("walk", 1.5)
	drive := run("drive", 15)

	t := &stats.Table{
		Title:   "Extension (Section 7): mobility and roaming under CellFi",
		Headers: []string{"Scenario", "Median Mbps", "Starved %", "Handovers"},
	}
	t.AddRow("Static", stats.Fmt(static.median), stats.Fmt(static.starved), "0")
	t.AddRow("Pedestrian (1.5 m/s)", stats.Fmt(walk.median), stats.Fmt(walk.starved),
		stats.Fmt(float64(walk.handovers)))
	t.AddRow("Vehicular (15 m/s)", stats.Fmt(drive.median), stats.Fmt(drive.starved),
		stats.Fmt(float64(drive.handovers)))

	return Result{
		ID:     "mobility",
		Title:  "Extension: mobility and roaming (Section 7)",
		Tables: []*stats.Table{t},
		Notes: []string{
			note("vehicular clients hand over %d times yet starvation moves %.1f -> %.1f%% — the PRACH census tracks movers with no protocol additions",
				drive.handovers, static.starved, drive.starved),
		},
	}
}
