package experiments

import (
	"math/rand"

	"cellfi/internal/core"
	"cellfi/internal/geo"
	"cellfi/internal/lte"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
)

// Figure8 reproduces the CQI/interference-tracking experiment of
// Section 6.3.2: PHY throughput and reported CQI during alternating
// ON/OFF periods of an interfering radio, over a fading channel, and
// the error rates of the CQI-drop interference detector (paper: < 2%
// false positives, ~80% detection).
func Figure8(seed int64, quick bool) Result {
	// Timeline: 5 seconds, interferer toggling every ~1.25 s —
	// OFF ON OFF ON as in the figure. CQI sampled every 2 ms.
	totalMS := int64(5000)
	sampleEveryMS := int64(2)
	if quick {
		totalMS = 1500
	}
	onAt := func(t int64) bool { return (t/1250)%2 == 1 }

	// The rooftop geometry, rebuilt per leg (the interferer's Activity
	// is mutated while measuring).
	type fig8Rig struct {
		env        *lte.Environment
		serving    *lte.Cell
		interferer *lte.Cell
		ifs        []*lte.Cell
		cl         *lte.Client
	}
	rig := func() fig8Rig {
		serving := &lte.Cell{
			ID: 1, Pos: geo.Point{X: 0, Y: 0}, TxPowerDBm: 23,
			BW: lte.BW5MHz, TDD: lte.TDDConfig4, Activity: lte.FullBuffer,
		}
		interferer := &lte.Cell{
			ID: 2, Pos: geo.Point{X: 120, Y: 40}, TxPowerDBm: 23,
			BW: lte.BW5MHz, TDD: lte.TDDConfig4,
		}
		return fig8Rig{
			env:        lte.NewEnvironment(seed),
			serving:    serving,
			interferer: interferer,
			ifs:        []*lte.Cell{interferer},
			cl:         &lte.Client{ID: 700, Pos: geo.Point{X: 90, Y: 0}, TxPowerDBm: 20},
		}
	}

	// Two independent legs: the ON/OFF interference timeline and the
	// clean-channel false-positive scan. Each leg owns a CQI reporter
	// on a seed-derived stream, so the fleet is order independent.
	type fig8Timeline struct {
		tputSeries, cqiSeries      [][2]float64
		detectedEpisodes, episodes int
		fpSamples, cleanSamples    int
	}
	legs := []func(c *runner.Ctx) fig8Timeline{
		func(c *runner.Ctx) fig8Timeline {
			r := rig()
			reporter := lte.NewCQIReporter(0.05, rand.New(rand.NewSource(seed)))
			detector := core.NewInterferenceDetector(500)
			var out fig8Timeline
			var fpOnsets int
			// One sub-band, reused: subchannel 6's signal, denominator
			// and CQI.
			var sig, den [1]float64
			sub := make([]int, 1)
			inEpisode, episodeHit, prevTrip := false, false, false
			for t := int64(0); t < totalMS; t += sampleEveryMS {
				if onAt(t) {
					r.interferer.Activity = lte.FullBuffer
				} else {
					r.interferer.Activity = lte.Off
				}
				if on := onAt(t); on != inEpisode {
					if on {
						out.episodes++
						episodeHit = false
					} else if episodeHit {
						out.detectedEpisodes++
					}
					inEpisode = on
				}
				sig[0], den[0] = r.env.DownlinkSINRParts(r.serving, r.ifs, r.cl, 6, t)
				cqi := reporter.ReportLinearInto(sig[:], den[:], sub).Subband[0]
				tput := lte.SubchannelRateBps(lte.BW5MHz, lte.TDDConfig4, 6, cqi) *
					float64(lte.BW5MHz.Subchannels()) / 1e6
				if t%50 == 0 { // decimate for the plotted series
					out.tputSeries = append(out.tputSeries, [2]float64{float64(t) / 1000, tput})
					out.cqiSeries = append(out.cqiSeries, [2]float64{float64(t) / 1000, float64(cqi)})
				}
				trip := detector.Observe(cqi)
				if trip && !prevTrip {
					if inEpisode {
						episodeHit = true
					} else {
						fpOnsets++
					}
				}
				prevTrip = trip
			}
			if inEpisode && episodeHit {
				out.detectedEpisodes++
			}
			c.AddSteps(totalMS / sampleEveryMS)
			return out
		},
		// False-positive rate per sample on a clean channel (fresh
		// detector, no interferer), matching the paper's metric of <2%
		// of samples.
		func(c *runner.Ctx) fig8Timeline {
			r := rig()
			reporter := lte.NewCQIReporter(0.05, rand.New(rand.NewSource(seed+1)))
			cleanDetector := core.NewInterferenceDetector(500)
			r.interferer.Activity = lte.Off
			var out fig8Timeline
			var sig, den [1]float64
			sub := make([]int, 1)
			for t := int64(0); t < totalMS; t += sampleEveryMS {
				sig[0], den[0] = r.env.DownlinkSINRParts(r.serving, r.ifs, r.cl, 6, t+777777)
				rep := reporter.ReportLinearInto(sig[:], den[:], sub)
				if cleanDetector.Observe(rep.Subband[0]) {
					out.fpSamples++
				}
				out.cleanSamples++
			}
			c.AddSteps(totalMS / sampleEveryMS)
			return out
		},
	}
	runs := grid("fig8", []string{"timeline", "clean"}, 1, func(int) int64 { return seed },
		func(c *runner.Ctx, arm, _ int) fig8Timeline { return legs[arm](c) })
	timeline, clean := runs[0][0], runs[1][0]
	tputSeries, cqiSeries := timeline.tputSeries, timeline.cqiSeries
	detectedEpisodes, episodes := timeline.detectedEpisodes, timeline.episodes
	fpSamples, cleanSamples := clean.fpSamples, clean.cleanSamples

	detRate := 0.0
	if episodes > 0 {
		detRate = float64(detectedEpisodes) / float64(episodes)
	}
	fpRate := float64(fpSamples) / float64(cleanSamples)

	t := &stats.Table{
		Title:   "Figure 8: CQI interference detector",
		Headers: []string{"Metric", "Paper", "Measured"},
	}
	t.AddRow("Detection rate (strong interference)", "~80%", stats.Fmt(detRate*100)+"%")
	t.AddRow("False positives (clean fading channel)", "< 2%", stats.Fmt(fpRate*100)+"%")
	t.AddRow("Interference episodes", "-", stats.Fmt(float64(episodes)))

	return Result{
		ID:     "fig8",
		Title:  "Figure 8: PHY throughput and CQI under ON/OFF interference",
		Tables: []*stats.Table{t},
		Series: []stats.Series{
			{Name: "fig8: PHY throughput (Mbps) vs time (s)", Points: tputSeries},
			{Name: "fig8: reported CQI vs time (s)", Points: cqiSeries},
		},
		Notes: []string{
			note("detector caught %d/%d interference episodes (paper: ~80%% of strong interference)", detectedEpisodes, episodes),
			note("false-positive rate %.2f%% on the clean fading channel (paper: < 2%%)", fpRate*100),
			note("CQI drops track the interferer's ON periods; deep fades without interference do not trip the detector (run-length rule)"),
		},
	}
}
