package experiments

import (
	"math"

	"cellfi/internal/geo"
	"cellfi/internal/lte"
	"cellfi/internal/phy"
	"cellfi/internal/propagation"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
)

// tcpEfficiency derates PHY goodput to TCP goodput (headers, ACK
// clocking, slow-start transients over the walk).
const tcpEfficiency = 0.85

// driveTestCell is the Section 3.1 transmitter: 30 dBm into a sector
// antenna for 36 dBm EIRP at boresight.
func driveTestCell() *lte.Cell {
	return &lte.Cell{
		ID:         1,
		Pos:        geo.Point{X: 0, Y: 0},
		TxPowerDBm: 30,
		Antenna:    propagation.Sector(0),
		BW:         lte.BW5MHz,
		TDD:        lte.TDDConfig4,
		Activity:   lte.FullBuffer,
	}
}

// Figure1 reproduces the outdoor drive test of Section 3.1: a single
// 36 dBm EIRP LTE cell, a client walked outward to beyond 1.3 km.
// Outputs: (a) TCP throughput vs distance, (b) CDFs of the coding rate
// used on uplink and downlink, (c) CDFs of the fraction of the channel
// used, plus the HARQ usage beyond 500 m.
func Figure1(seed int64, quick bool) Result {
	step := 10.0
	blocksPerLoc := 20
	if quick {
		step = 50
		blocksPerLoc = 6
	}

	// One fleet leg per measurement location. Fading and shadowing are
	// pure hashes of (seed, link, time), so per-leg environments with
	// the same seed reproduce the sequential walk bit for bit.
	var dists []float64
	for d := 30.0; d <= 1500; d += step {
		dists = append(dists, d)
	}
	type fig1Loc struct {
		tput                              float64
		dlBlocks                          int
		dlRates, ulRates, ulFrac, farBLER []float64
	}
	locs := grid("fig1", []string{"walk"}, len(dists),
		func(i int) int64 { return seed },
		func(c *runner.Ctx, _, i int) fig1Loc {
			d := dists[i]
			env := lte.NewEnvironment(seed)
			cell := driveTestCell()
			s := lte.BW5MHz.Subchannels()
			var out fig1Loc
			cl := &lte.Client{ID: 1000, Pos: geo.Point{X: d, Y: 0}, TxPowerDBm: 20}
			var locBits float64
			prevWideband := make([]int, s)
			for b := 0; b < blocksPerLoc; b++ {
				tMS := int64(b) * 100
				// Downlink: the lone client gets the full carrier.
				for k := 0; k < s; k++ {
					sinr := env.DownlinkSINR(cell, nil, cl, k, tMS)
					cqi := phy.LTECQIFromSINR(sinr)
					locBits += lte.SubchannelRateBps(lte.BW5MHz, lte.TDDConfig4, k, cqi) * 0.1
					if cqi > 0 {
						out.dlRates = append(out.dlRates, phy.LTECQI(cqi).CodeRate)
						// Link adaptation lag: the transport format came
						// from the previous block's report, backed off
						// one step as real eNodeB outer loops do; measure
						// the first-attempt failure probability now.
						prev := prevWideband[k] - 1
						if prev > 0 && d > 500 {
							out.farBLER = append(out.farBLER, phy.BLER(sinr, phy.LTECQI(prev)))
						}
					}
					prevWideband[k] = cqi
				}
				out.dlBlocks++ // backlogged DL fills the carrier

				// Uplink: TCP ACK stream, about 1.5% of the downlink
				// volume (delayed ACKs), concentrated in as few RBs as
				// possible (Figure 1c's OFDMA trick).
				ulSINR := env.UplinkSINR(cl, cell, 1, 0, tMS)
				ulCQI := phy.LTECQIFromSINR(ulSINR)
				if ulCQI > 0 {
					perRB := float64(lte.TransportBlockBits(ulCQI, 1)) /
						lte.SubframeDuration.Seconds() * lte.TDDConfig4.UplinkFraction()
					need := locBits / (0.1 * float64(b+1)) * 0.015
					nRBs := int(math.Ceil(need / perRB))
					if nRBs < 1 {
						nRBs = 1
					}
					if nRBs > 25 {
						nRBs = 25
					}
					out.ulRates = append(out.ulRates, phy.LTECQI(ulCQI).CodeRate)
					out.ulFrac = append(out.ulFrac, float64(nRBs)/25)
				}
			}
			c.AddSteps(int64(blocksPerLoc))
			out.tput = locBits / (float64(blocksPerLoc) * 0.1) * tcpEfficiency / 1e6
			return out
		})[0]

	var aPoints [][2]float64
	var dlRates, ulRates, dlFrac, ulFrac []float64
	var farBLER []float64 // first-transmission failure prob beyond 500 m
	var locations, covered1Mbps int
	maxRange1Mbps := 0.0
	for i, loc := range locs {
		d := dists[i]
		dlRates = append(dlRates, loc.dlRates...)
		ulRates = append(ulRates, loc.ulRates...)
		ulFrac = append(ulFrac, loc.ulFrac...)
		farBLER = append(farBLER, loc.farBLER...)
		for b := 0; b < loc.dlBlocks; b++ {
			dlFrac = append(dlFrac, 1.0)
		}
		aPoints = append(aPoints, [2]float64{d, loc.tput})
		locations++
		if loc.tput >= 1 {
			covered1Mbps++
			if d > maxRange1Mbps {
				maxRange1Mbps = d
			}
		}
	}

	coveredFrac := float64(covered1Mbps) / float64(locations)
	medianDL := stats.NewCDF(dlRates).Median()
	medianUL := stats.NewCDF(ulRates).Median()
	var harqFrac float64
	if len(farBLER) > 0 {
		harqFrac = stats.NewCDF(farBLER).Mean()
	}

	t := &stats.Table{
		Title:   "Figure 1 summary: outdoor LTE drive test (36 dBm EIRP)",
		Headers: []string{"Metric", "Paper", "Measured"},
	}
	t.AddRow("Range (urban)", "1.3 km", stats.Fmt(maxRange1Mbps/1000)+" km")
	t.AddRow("Locations with >= 1 Mbps", ">= 85%", stats.Fmt(coveredFrac*100)+"%")
	t.AddRow("Median DL coding rate", "~0.5", stats.Fmt(medianDL))
	t.AddRow("Median UL coding rate", "~0.5", stats.Fmt(medianUL))
	t.AddRow("Median UL channel fraction", "1 RB (0.04)", stats.Fmt(stats.NewCDF(ulFrac).Median()))
	t.AddRow("HARQ fraction beyond 500 m", "~25%", stats.Fmt(harqFrac*100)+"%")

	return Result{
		ID:     "fig1",
		Title:  "Figure 1: LTE coverage, coding rates, channel usage",
		Tables: []*stats.Table{t},
		Series: []stats.Series{
			{Name: "fig1a: TCP throughput vs distance (Mbps)", Points: aPoints},
			cdfSeries("fig1b: DL coding rate CDF", dlRates, 41),
			cdfSeries("fig1b: UL coding rate CDF", ulRates, 41),
			cdfSeries("fig1c: DL channel fraction CDF", dlFrac, 11),
			cdfSeries("fig1c: UL channel fraction CDF", ulFrac, 41),
		},
		Notes: []string{
			note("range with >= 1 Mbps: %.2f km (paper: 1.3 km)", maxRange1Mbps/1000),
			note("%.0f%% of locations at >= 1 Mbps (paper: > 85%%)", coveredFrac*100),
			note("uplink rides in a single resource block at most locations — the OFDMA advantage of Figure 1c"),
		},
	}
}
