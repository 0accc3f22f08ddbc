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

// Figure7 reproduces the outdoor two-cell interference experiment of
// Section 6.3.1: a serving and an interfering E40 cell on a rooftop,
// a client walked along a path whose SINR spans -15..+30 dB. Three
// conditions: interferer off, interferer on but idle (signalling
// only), interferer fully backlogged. The metric is goodput in bits
// per modulation symbol: coding_rate * modulation_bits * (1 - BLER).
func Figure7(seed int64, quick bool) Result {
	step := 8.0
	blocks := 10
	if quick {
		step = 25
		blocks = 4
	}

	var dists []float64
	for d := 30.0; d <= 1250; d += step {
		dists = append(dists, d)
	}

	// One fleet leg per path position. Each leg owns its cells (the
	// interferer's Activity toggles during measurement) and its
	// environment; the hash-based fading makes legs bit-identical to
	// the sequential walk.
	type fig7Loc struct {
		bOff, bSig  [][2]float64
		cSig, cFull []float64
		disconnects int
		points      int
	}
	goodput := func(sinr float64, factor float64) float64 {
		cqi := phy.LTECQIFromSINR(sinr)
		if cqi == 0 {
			return 0
		}
		return lte.GoodputBitsPerSymbol(cqi, phy.BLER(sinr, phy.LTECQI(cqi))) * factor
	}
	locs := grid("fig7", []string{"walk"}, len(dists),
		func(i int) int64 { return seed },
		func(c *runner.Ctx, _, i int) fig7Loc {
			env := lte.NewEnvironment(seed)
			// The serving cell's sector points down the walk; the
			// interfering cell sits far beyond the path end with its
			// sector pointing back at it. Walking outward, the serving
			// signal weakens while the interference strengthens —
			// reproducing the paper's -15..+30 dB SINR spread with the
			// worst conditions at the path end, exactly as their
			// Figure 7(a) rooftop geometry behaves.
			serving := &lte.Cell{
				ID: 1, Pos: geo.Point{X: 0, Y: 0}, TxPowerDBm: 23,
				Antenna: propagation.Sector(0), BW: lte.BW5MHz, TDD: lte.TDDConfig4,
				Activity: lte.FullBuffer,
			}
			interferer := &lte.Cell{
				ID: 2, Pos: geo.Point{X: 2300, Y: 80}, TxPowerDBm: 23,
				Antenna: propagation.Sector(3.14159), BW: lte.BW5MHz, TDD: lte.TDDConfig4,
			}
			ifs := []*lte.Cell{interferer}
			var out fig7Loc
			pos := geo.Point{X: dists[i], Y: 0}
			cl := &lte.Client{ID: 500, Pos: pos, TxPowerDBm: 20}
			for b := 0; b < blocks; b++ {
				tMS := int64(b) * 100
				rssi := env.DownlinkRSSI(serving, cl, tMS)

				// Off: pure SNR.
				interferer.Activity = lte.Off
				offSINR := env.DownlinkSINR(serving, ifs, cl, 6, tMS)
				gOff := goodput(offSINR, 1)

				// Signalling only: same data SINR, punctured goodput.
				interferer.Activity = lte.SignallingOnly
				sigFactor := env.PuncturedGoodputFactor(serving, ifs, cl, 6, tMS)
				gSig := goodput(offSINR, sigFactor)

				// Full buffer: collapsed SINR.
				interferer.Activity = lte.FullBuffer
				fullSINR := env.DownlinkSINR(serving, ifs, cl, 6, tMS)
				gFull := goodput(fullSINR, env.PuncturedGoodputFactor(serving, ifs, cl, 6, tMS))

				out.bOff = append(out.bOff, [2]float64{rssi, gOff})
				out.bSig = append(out.bSig, [2]float64{rssi, gSig})
				out.points++

				// Figure 7(c) conditions on the weak-signal region of the
				// path (SINR below 10 dB — at the far end the client has
				// left the serving sector, so its signal is weak with or
				// without interference). As in the paper, disconnections
				// are counted but not included in the goodput CDFs — "we
				// cannot register goodput during these intervals".
				if offSINR < 10 {
					if phy.LTECQIFromSINR(fullSINR) == 0 {
						out.disconnects++
					} else {
						out.cSig = append(out.cSig, gSig)
						out.cFull = append(out.cFull, gFull)
					}
				}
			}
			c.AddSteps(int64(blocks))
			return out
		})[0]

	// Series (b): goodput vs RSSI for off vs signalling-only.
	var bOff, bSig [][2]float64
	// Series (c): goodput CDFs where SINR < 10 dB, signalling vs full.
	var cSig, cFull []float64
	disconnects := 0
	points := 0
	for _, loc := range locs {
		bOff = append(bOff, loc.bOff...)
		bSig = append(bSig, loc.bSig...)
		cSig = append(cSig, loc.cSig...)
		cFull = append(cFull, loc.cFull...)
		disconnects += loc.disconnects
		points += loc.points
	}

	// Summary statistics for the paper's claims.
	var worstSigLoss, meanSigLoss float64
	for i := range bOff {
		if bOff[i][1] <= 0 {
			continue
		}
		loss := 1 - bSig[i][1]/bOff[i][1]
		meanSigLoss += loss
		if loss > worstSigLoss {
			worstSigLoss = loss
		}
	}
	meanSigLoss /= float64(len(bOff))
	sigCDF, fullCDF := stats.NewCDF(cSig), stats.NewCDF(cFull)
	medianReduction := 0.0
	if sigCDF.Median() > 0 {
		medianReduction = 1 - fullCDF.Median()/sigCDF.Median()
	}

	t := &stats.Table{
		Title:   "Figure 7: control vs data interference (goodput in bit/symbol)",
		Headers: []string{"Metric", "Paper", "Measured"},
	}
	t.AddRow("Worst signalling-only goodput loss", "<= 20%", stats.Fmt(worstSigLoss*100)+"%")
	t.AddRow("Mean signalling-only loss", "much less", stats.Fmt(meanSigLoss*100)+"%")
	t.AddRow("Median goodput loss, full vs signalling (SINR<10dB)", "up to 50%", stats.Fmt(medianReduction*100)+"%")
	t.AddRow("Disconnections under full interference", "frequent at path end",
		stats.Fmt(float64(disconnects)))

	return Result{
		ID:     "fig7",
		Title:  "Figure 7: LTE interference experiment",
		Tables: []*stats.Table{t},
		Series: []stats.Series{
			{Name: "fig7b: goodput vs RSSI, no interference", Points: bOff},
			{Name: "fig7b: goodput vs RSSI, signalling interference", Points: bSig},
			cdfSeries("fig7c: goodput CDF, signalling-only (SINR<10dB)", cSig, 41),
			cdfSeries("fig7c: goodput CDF, full interference (SINR<10dB)", cFull, 41),
		},
		Notes: []string{
			note("signalling-only interference costs at most %.0f%% goodput (paper: <= 20%%)", math.Ceil(worstSigLoss*100)),
			note("full data interference cuts median goodput by %.0f%% in the weak-signal region and causes %d disconnection samples (paper: up to 50%% reductions and frequent disconnects at the path end)",
				medianReduction*100, disconnects),
		},
	}
}
