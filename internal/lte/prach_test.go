package lte

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestZadoffChuConstantAmplitude(t *testing.T) {
	x := ZadoffChu(25, PRACHSequenceLength)
	for i, v := range x {
		if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
			t.Fatalf("sample %d has amplitude %g, want 1 (CAZAC property)", i, cmplx.Abs(v))
		}
	}
}

func TestZadoffChuZeroAutocorrelation(t *testing.T) {
	// CAZAC: the autocorrelation of a ZC sequence is zero at every
	// nonzero cyclic lag.
	x := ZadoffChu(7, 139)
	n := len(x)
	for lag := 1; lag < n; lag += 13 {
		var acc complex128
		for k := 0; k < n; k++ {
			acc += x[k] * cmplx.Conj(x[(k+lag)%n])
		}
		if cmplx.Abs(acc) > 1e-9*float64(n) {
			t.Fatalf("autocorrelation at lag %d = %g, want 0", lag, cmplx.Abs(acc))
		}
	}
}

func TestZadoffChuCrossCorrelationLow(t *testing.T) {
	// Different prime-length roots have constant sqrt(N) cross-
	// correlation — far below the N autocorrelation peak.
	n := PRACHSequenceLength
	a := ZadoffChu(3, n)
	b := ZadoffChu(11, n)
	var acc complex128
	for k := 0; k < n; k++ {
		acc += a[k] * cmplx.Conj(b[k])
	}
	if got := cmplx.Abs(acc); got > 1.5*math.Sqrt(float64(n)) {
		t.Fatalf("cross-correlation %g, want about sqrt(%d)=%g", got, n, math.Sqrt(float64(n)))
	}
}

func TestZadoffChuValidation(t *testing.T) {
	for _, c := range []struct{ u, n int }{{0, 839}, {839, 839}, {1, 838}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ZadoffChu(%d, %d) should panic", c.u, c.n)
				}
			}()
			ZadoffChu(c.u, c.n)
		}()
	}
}

func TestGeneratePreambleShift(t *testing.T) {
	base := ZadoffChu(5, PRACHSequenceLength)
	p := GeneratePreamble(Preamble{Root: 5, Shift: 100})
	for k := 0; k < PRACHSequenceLength; k++ {
		if p[k] != base[(k+100)%PRACHSequenceLength] {
			t.Fatalf("shifted preamble wrong at sample %d", k)
		}
	}
	// Zero shift returns the root itself.
	p0 := GeneratePreamble(Preamble{Root: 5})
	for k := range p0 {
		if p0[k] != base[k] {
			t.Fatal("zero-shift preamble differs from root")
		}
	}
}

func TestFastDetectorCleanSignal(t *testing.T) {
	for _, root := range []int{1, 25, 129, 838} {
		det := NewFastDetector(root)
		for _, shift := range []int{0, 1, 119, 500, 838} {
			tx := GeneratePreamble(Preamble{Root: root, Shift: shift})
			res := det.Detect(tx)
			if !res.Detected {
				t.Fatalf("root %d: clean preamble shift %d not detected", root, shift)
			}
			if res.Shift != shift {
				t.Fatalf("root %d: shift %d detected as %d", root, shift, res.Shift)
			}
		}
	}
}

// The detector the prach experiment and the benchmark run (one
// zero-padded FFT convolution against a precomputed kernel) must
// return exactly what the conventional time-domain detector returns:
// the paper's "identical result, 16x cheaper" claim.
func TestDetectorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, root := range []int{1, 17, 129} {
		det := NewFastDetector(root)
		for _, shift := range []int{0, 333, 838} {
			tx := GeneratePreamble(Preamble{Root: root, Shift: shift})
			for _, snrDB := range []float64{PRACHDetectFloorDB, 0, 10} {
				rx := AddAWGN(rng, tx, snrDB)
				fast := det.Detect(rx)
				naive := DetectPreambleNaive(rx, root)
				if fast.Detected != naive.Detected || fast.Shift != naive.Shift {
					t.Fatalf("root %d shift %d at %g dB: detectors disagree: fast=%+v naive=%+v",
						root, shift, snrDB, fast, naive)
				}
				if math.Abs(fast.PeakToMean-naive.PeakToMean)/naive.PeakToMean > 1e-6 {
					t.Fatalf("root %d shift %d at %g dB: statistics differ: %g vs %g",
						root, shift, snrDB, fast.PeakToMean, naive.PeakToMean)
				}
			}
		}
	}
}

// The Section 6.3.3 claim: preambles are detectable at -10 dB SNR.
func TestDetectionAtMinus10dB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	det := NewFastDetector(25)
	detected := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		tx := GeneratePreamble(Preamble{Root: 25, Shift: rng.Intn(PRACHSequenceLength)})
		rx := AddAWGN(rng, tx, PRACHDetectFloorDB)
		if det.Detect(rx).Detected {
			detected++
		}
	}
	if detected < 95 {
		t.Fatalf("detected %d/%d at -10 dB, want >= 95", detected, trials)
	}
}

func TestNoFalseAlarmsOnNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	det := NewFastDetector(25)
	falseAlarms := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		noise := make([]complex128, PRACHSequenceLength)
		rx := AddAWGN(rng, noise, 0) // pure unit-power noise
		if det.Detect(rx).Detected {
			falseAlarms++
		}
	}
	// CFAR-style expectation: essentially no false alarms at 10x
	// peak-to-mean over 839 bins.
	if falseAlarms > 4 {
		t.Fatalf("%d/%d false alarms on pure noise", falseAlarms, trials)
	}
}

func TestNoDetectionOfWrongRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	det := NewFastDetector(25)
	// A strong preamble from a different root must not register
	// (constant sqrt(N) cross-correlation keeps peak-to-mean ~1).
	tx := GeneratePreamble(Preamble{Root: 11, Shift: 50})
	rx := AddAWGN(rng, tx, 20)
	if res := det.Detect(rx); res.Detected {
		t.Fatalf("wrong-root preamble detected: %+v", res)
	}
}

func TestDetectionDegradesGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	det := NewFastDetector(25)
	rate := func(snrDB float64) float64 {
		hits := 0
		const trials = 60
		for i := 0; i < trials; i++ {
			tx := GeneratePreamble(Preamble{Root: 25, Shift: 100})
			if det.Detect(AddAWGN(rng, tx, snrDB)).Detected {
				hits++
			}
		}
		return float64(hits) / trials
	}
	if r := rate(-10); r < 0.9 {
		t.Errorf("detection rate at -10 dB = %g, want >= 0.9", r)
	}
	if r := rate(-24); r > 0.5 {
		t.Errorf("detection rate at -24 dB = %g; detector should fail well below the floor", r)
	}
}

func TestDetectorWindowValidation(t *testing.T) {
	det := NewFastDetector(25)
	defer func() {
		if recover() == nil {
			t.Fatal("short window should panic")
		}
	}()
	det.Detect(make([]complex128, 100))
}

// Section 6.3.3: the modified detector runs ~16x faster than the line
// rate. Our line-rate reference: one 839-sample preamble arrives per
// 0.8 ms PRACH window on a 10 MHz channel (1.048 Msps preamble
// sampling); the detector must process a window well under that.
func TestFastDetectorBeatsLineRate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("timing test: race instrumentation slows the detector severalfold")
	}
	det := NewFastDetector(25)
	rng := rand.New(rand.NewSource(6))
	rx := AddAWGN(rng, GeneratePreamble(Preamble{Root: 25, Shift: 42}), 0)
	const windows = 200
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < windows; j++ {
				_ = det.Detect(rx)
			}
		}
	})
	perWindow := res.T.Seconds() / float64(res.N) / windows
	// Line rate: one window per 0.8 ms. The paper reports 16x on an
	// i7; machines and concurrent load vary, so the test only asserts
	// the claim itself — the detector keeps up with line rate. The
	// prach experiment reports the actual multiple.
	if perWindow > 0.8e-3 {
		t.Errorf("detector takes %.3f ms per 0.8 ms window; not real-time", perWindow*1e3)
	}
}

func BenchmarkPRACHDetectFast(b *testing.B) {
	det := NewFastDetector(25)
	rng := rand.New(rand.NewSource(1))
	rx := AddAWGN(rng, GeneratePreamble(Preamble{Root: 25, Shift: 42}), -10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = det.Detect(rx)
	}
}

func BenchmarkPRACHDetectNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rx := AddAWGN(rng, GeneratePreamble(Preamble{Root: 25, Shift: 42}), -10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DetectPreambleNaive(rx, 25)
	}
}
