package lte

import (
	"math/rand"
	"testing"

	"cellfi/internal/phy"
)

func TestCQIReporterNoiseless(t *testing.T) {
	r := NewCQIReporter(0, nil)
	sinrs := []float64{-10, -6.7, 0.2, 10.3, 25}
	rep := r.Report(sinrs)
	want := []int{0, 1, 4, 9, 15}
	for i := range want {
		if rep.Subband[i] != want[i] {
			t.Errorf("subband %d CQI = %d, want %d", i, rep.Subband[i], want[i])
		}
	}
	if rep.Bits != CQIReportBits {
		t.Errorf("report bits = %d, want %d", rep.Bits, CQIReportBits)
	}
	// Wideband summarizes: must lie within the subband range.
	if rep.Wideband < 0 || rep.Wideband > 15 {
		t.Errorf("wideband CQI %d out of range", rep.Wideband)
	}
}

func TestCQIReporterWidebandDominatedByWeak(t *testing.T) {
	r := NewCQIReporter(0, nil)
	// One very bad subchannel drags the EESM wideband value well
	// below the best subband CQI.
	rep := r.Report([]float64{-20, 20, 20, 20})
	best := 0
	for _, c := range rep.Subband {
		if c > best {
			best = c
		}
	}
	if rep.Wideband >= best {
		t.Errorf("wideband %d not below best subband %d", rep.Wideband, best)
	}
}

func TestCQIReporterNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewCQIReporter(0.3, rng)
	diffs := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		rep := r.Report([]float64{10})
		truth := phy.LTECQIFromSINR(10)
		d := rep.Subband[0] - truth
		if d != 0 {
			diffs++
			if d < -1 || d > 1 {
				t.Fatalf("noise moved CQI by %d steps", d)
			}
		}
	}
	frac := float64(diffs) / trials
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("noise rate = %g, want about 0.3", frac)
	}
}

func TestCQIReporterNoiseClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := NewCQIReporter(1, rng) // always noisy
	for i := 0; i < 200; i++ {
		rep := r.Report([]float64{-20, 40})
		if rep.Subband[0] < 0 || rep.Subband[1] > phy.LTECQICount {
			t.Fatalf("noise escaped valid range: %v", rep.Subband)
		}
	}
}
