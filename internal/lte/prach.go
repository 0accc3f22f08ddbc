package lte

import (
	"math"
	"math/cmplx"
	"math/rand"
)

// PRACH: random-access preambles. An LTE client opens a connection by
// transmitting a Zadoff-Chu preamble; CellFi access points additionally
// overhear preambles from clients of *other* cells to estimate the
// number of contending users (Section 5.1). This file implements
// preamble generation and the two detectors compared in Section 6.3.3:
// a conventional detector that correlates every candidate preamble in
// the time domain, and the paper's low-complexity detector that
// exploits the ZC time-shift <-> frequency-cyclic-shift duality to use
// just two correlation passes.

// PRACHSequenceLength is the Zadoff-Chu sequence length of preamble
// formats 0-3 (TS 36.211); it is prime.
const PRACHSequenceLength = 839

// ZadoffChu returns the length-n root-u Zadoff-Chu sequence
// x_u(k) = exp(-i*pi*u*k*(k+1)/n) for odd n. gcd(u, n) must be 1;
// with n prime any u in 1..n-1 works.
func ZadoffChu(u, n int) []complex128 {
	if n <= 0 || n%2 == 0 {
		panic("lte: Zadoff-Chu length must be odd and positive")
	}
	if u <= 0 || u >= n {
		panic("lte: Zadoff-Chu root must be in 1..n-1")
	}
	x := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k*(k+1) mod 2n keeps the phase argument exact.
		kk := (int64(k) * int64(k+1)) % int64(2*n)
		ang := -math.Pi * float64(u) * float64(kk) / float64(n)
		x[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return x
}

// Preamble identifies one of a cell's random-access preambles.
type Preamble struct {
	Root  int // ZC root sequence index
	Shift int // cyclic shift (multiple of N_cs in a real cell)
}

// GeneratePreamble returns the time-domain preamble: the root ZC
// sequence cyclically shifted by p.Shift.
func GeneratePreamble(p Preamble) []complex128 {
	base := ZadoffChu(p.Root, PRACHSequenceLength)
	if p.Shift%PRACHSequenceLength == 0 {
		return base
	}
	n := PRACHSequenceLength
	s := ((p.Shift % n) + n) % n
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = base[(k+s)%n]
	}
	return out
}

// AddAWGN adds complex white Gaussian noise to a unit-power signal so
// the resulting per-sample SNR is snrDB. It returns a new slice.
func AddAWGN(rng *rand.Rand, signal []complex128, snrDB float64) []complex128 {
	noisePower := math.Pow(10, -snrDB/10)
	sigma := math.Sqrt(noisePower / 2)
	out := make([]complex128, len(signal))
	for i, s := range signal {
		out[i] = s + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return out
}

// DetectionResult reports a detector's verdict.
type DetectionResult struct {
	Detected bool
	// Shift is the most likely cyclic shift (combining preamble index
	// and timing offset) when detected.
	Shift int
	// PeakToMean is the detection statistic: the correlation peak
	// power over the mean correlation power.
	PeakToMean float64
}

// DetectionThreshold is the peak-to-mean power ratio above which a
// preamble is declared present. Under noise alone the 839 correlation
// bins are i.i.d. exponential, so the expected peak-to-mean is
// ln(839) ~ 6.7 with a Gumbel tail: a threshold of 13 keeps the false-
// alarm rate near 0.2% per window. With N=839 the correlation
// processing gain is ~29 dB, so at -10 dB SNR a real preamble's peak
// stands near 84x the mean — far above the threshold.
const DetectionThreshold = 13.0

// FastDetector precomputes the root sequence's conjugated spectrum and
// the Bluestein transform plans, so each detection pays only the
// forward and inverse transforms of the received window.
type FastDetector struct {
	refSpectrum []complex128
	fwd, inv    *DFTPlan
}

// NewFastDetector builds a detector for one root sequence.
func NewFastDetector(root int) *FastDetector {
	ref := ZadoffChu(root, PRACHSequenceLength)
	spec := DFT(ref)
	for i := range spec {
		spec[i] = complex(real(spec[i]), -imag(spec[i]))
	}
	return &FastDetector{
		refSpectrum: spec,
		fwd:         NewDFTPlan(PRACHSequenceLength, false),
		inv:         NewDFTPlan(PRACHSequenceLength, true),
	}
}

// Detect runs the two-correlation detection on one received window.
func (d *FastDetector) Detect(rx []complex128) DetectionResult {
	if len(rx) != PRACHSequenceLength {
		panic("lte: PRACH window must be 839 samples")
	}
	fa := d.fwd.Transform(rx)
	for i := range fa {
		fa[i] *= d.refSpectrum[i]
	}
	return detectFrom(d.inv.Transform(fa))
}

func detectFrom(corr []complex128) DetectionResult {
	var peak float64
	peakIdx := 0
	var sum float64
	for i, c := range corr {
		p := real(c)*real(c) + imag(c)*imag(c)
		sum += p
		if p > peak {
			peak = p
			peakIdx = i
		}
	}
	mean := sum / float64(len(corr))
	if mean == 0 {
		return DetectionResult{}
	}
	ptm := peak / mean
	// The correlation peaks at index (n - shift) mod n; invert so the
	// reported shift matches the transmitted preamble's cyclic shift.
	n := len(corr)
	return DetectionResult{
		Detected:   ptm >= DetectionThreshold,
		Shift:      (n - peakIdx) % n,
		PeakToMean: ptm,
	}
}

// DetectPreambleNaive is the conventional detector: it correlates the
// received window against every candidate preamble (all cyclic shifts
// of the root) directly in the time domain, O(N^2) per root versus the
// fast detector's O(N log N). Results are identical; only the cost
// differs — this is the comparison behind the paper's "16x faster than
// line rate" claim.
func DetectPreambleNaive(rx []complex128, root int) DetectionResult {
	n := PRACHSequenceLength
	if len(rx) != n {
		panic("lte: PRACH window must be 839 samples")
	}
	ref := ZadoffChu(root, n)
	var peak float64
	peakIdx := 0
	var sum float64
	for s := 0; s < n; s++ {
		var acc complex128
		for k := 0; k < n; k++ {
			acc += rx[k] * cmplx.Conj(ref[(k-s+n)%n])
		}
		p := real(acc)*real(acc) + imag(acc)*imag(acc)
		sum += p
		if p > peak {
			peak = p
			peakIdx = s
		}
	}
	mean := sum / float64(n)
	if mean == 0 {
		return DetectionResult{}
	}
	ptm := peak / mean
	return DetectionResult{Detected: ptm >= DetectionThreshold, Shift: (n - peakIdx) % n, PeakToMean: ptm}
}
