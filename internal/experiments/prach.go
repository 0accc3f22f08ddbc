package experiments

import (
	"math/rand"
	"time"

	"cellfi/internal/lte"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
)

// PRACH reproduces the Section 6.3.3 evaluation of the low-complexity
// PRACH detector: detection probability versus SNR (reliable at
// -10 dB), false alarms on noise, agreement with the conventional
// detector, and the speed-versus-line-rate factor (the paper reports
// 16x on an Intel i7 for a 10 MHz channel).
func PRACH(seed int64, quick bool) Result {
	trials := 200
	if quick {
		trials = 40
	}

	// One fleet leg per SNR point plus a noise-only false-alarm leg.
	// Each leg owns its detector and random stream.
	snrs := []float64{-24, -20, -16, -13, -10, -6, 0}
	counts := grid("prach", []string{"snr"}, len(snrs)+1,
		func(i int) int64 { return seed + int64(i)*9973 },
		func(c *runner.Ctx, _, i int) int {
			rng := rand.New(rand.NewSource(c.Seed()))
			det := lte.NewFastDetector(25)
			hits := 0
			for tr := 0; tr < trials; tr++ {
				var rx []complex128
				if i < len(snrs) {
					tx := lte.GeneratePreamble(lte.Preamble{Root: 25, Shift: rng.Intn(lte.PRACHSequenceLength)})
					rx = lte.AddAWGN(rng, tx, snrs[i])
				} else {
					rx = lte.AddAWGN(rng, make([]complex128, lte.PRACHSequenceLength), 0)
				}
				if det.Detect(rx).Detected {
					hits++
				}
			}
			addSteps(c, trials)
			return hits
		})[0]

	t := &stats.Table{
		Title:   "PRACH detector: detection probability vs SNR",
		Headers: []string{"SNR (dB)", "Detection rate"},
	}
	var series [][2]float64
	rateAt := map[float64]float64{}
	for i, snr := range snrs {
		r := float64(counts[i]) / float64(trials)
		rateAt[snr] = r
		t.AddRow(stats.Fmt(snr), stats.Fmt(r))
		series = append(series, [2]float64{snr, r})
	}
	fa := counts[len(snrs)] // false alarms on pure noise

	// Speed: windows per second for the fast and naive detectors; the
	// line rate is one 839-sample preamble window per 0.8 ms. Timing is
	// wall clock, so it stays out of the fleet.
	rng := rand.New(rand.NewSource(seed))
	det := lte.NewFastDetector(25)
	rx := lte.AddAWGN(rng, lte.GeneratePreamble(lte.Preamble{Root: 25, Shift: 42}), -10)
	timeIt := func(f func()) time.Duration {
		n := 20
		if quick {
			n = 5
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return time.Since(start) / time.Duration(n)
	}
	fastPer := timeIt(func() { det.Detect(rx) })
	naivePer := timeIt(func() { lte.DetectPreambleNaive(rx, 25) })
	const lineWindow = 800 * time.Microsecond
	fastFactor := float64(lineWindow) / float64(fastPer)
	naiveFactor := float64(lineWindow) / float64(naivePer)

	t2 := &stats.Table{
		Title:   "PRACH detector: complexity",
		Headers: []string{"Detector", "Per window", "x line rate"},
	}
	t2.AddRow("modified (2-correlation, FFT)", fastPer.String(), stats.Fmt(fastFactor))
	t2.AddRow("conventional (time-domain)", naivePer.String(), stats.Fmt(naiveFactor))

	return Result{
		ID:     "prach",
		Title:  "Section 6.3.3: PRACH preamble detection",
		Tables: []*stats.Table{t, t2},
		Series: []stats.Series{{Name: "prach: detection rate vs SNR", Points: series}},
		Notes: []string{
			note("detection at -10 dB SNR: %.0f%% (paper: reliable at -10 dB)", rateAt[-10]*100),
			note("%d/%d false alarms on pure noise", fa, trials),
			note("modified detector runs %.1fx line rate vs the conventional detector's %.1fx (paper: 16x on an i7; the ratio between detectors is the architecture-independent claim: %.1fx)",
				fastFactor, naiveFactor, float64(naivePer)/float64(fastPer)),
		},
	}
}
