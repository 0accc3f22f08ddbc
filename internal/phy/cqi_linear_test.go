package phy

import (
	"math"
	"math/rand"
	"testing"
)

// The linear-threshold CQI must be bit-identical to the log10 chain.
// Sweep -30..+40 dB at 0.001 dB steps (70,001 ratios spanning every
// threshold) and compare both directions: dB -> ratio and ratio -> dB.
func TestLTECQILinearExhaustive(t *testing.T) {
	for i := 0; i <= 70_000; i++ {
		db := -30 + float64(i)*0.001
		r := math.Pow(10, db/10)
		wantFromRatio := LTECQIFromSINR(10 * math.Log10(r))
		if got := LTECQIFromLinearSINR(r, 1); got != wantFromRatio {
			t.Fatalf("ratio %g (%.3f dB): linear CQI %d, log chain %d", r, db, got, wantFromRatio)
		}
		// Split the ratio across sig/den arbitrarily; the division must
		// reproduce the same CQI as the pre-divided ratio.
		if got := LTECQIFromLinearSINR(r*3.7, 3.7); got != LTECQIFromLinearSINR(r*3.7/3.7, 1) {
			t.Fatalf("ratio %g: sig/den split changed CQI", r)
		}
	}
}

// Walk several ULPs either side of every linear threshold: the CQI must
// flip at exactly the same float64 as the log-domain comparison does.
func TestLTECQILinearThresholdULPs(t *testing.T) {
	for i := 1; i <= 15; i++ {
		thr := lteCQILinearMin[i]
		r := thr
		for k := 0; k < 8; k++ {
			r = math.Nextafter(r, 0)
		}
		for k := 0; k < 16; k++ {
			want := LTECQIFromSINR(10 * math.Log10(r))
			if got := LTECQIFromLinearSINR(r, 1); got != want {
				t.Errorf("CQI %d threshold %b %+d ulps: linear %d, log %d",
					i, thr, k-8, got, want)
			}
			r = math.Nextafter(r, math.Inf(1))
		}
		// The threshold itself must be the first ratio that reaches CQI i.
		if LTECQIFromLinearSINR(thr, 1) < i {
			t.Errorf("CQI %d: threshold ratio does not reach its own CQI", i)
		}
		if below := math.Nextafter(thr, 0); LTECQIFromLinearSINR(below, 1) >= i {
			t.Errorf("CQI %d: one ulp below threshold still reaches CQI %d", i, i)
		}
	}
}

// Degenerate inputs must match the dB chain: NaN, zero signal, zero
// denominator, infinities.
func TestLTECQILinearDegenerate(t *testing.T) {
	cases := []struct{ sig, den float64 }{
		{0, 1},
		{math.NaN(), 1},
		{1, math.NaN()},
		{0, 0},
		{math.Inf(1), 1},
		{1, math.Inf(1)},
		{1e-300, 1e300},
		{1e300, 1e-300},
	}
	for _, c := range cases {
		want := LTECQIFromSINR(10 * math.Log10(c.sig/c.den))
		if got := LTECQIFromLinearSINR(c.sig, c.den); got != want {
			t.Errorf("sig %g den %g: linear CQI %d, log chain %d", c.sig, c.den, got, want)
		}
	}
}

// refCQIFromLinearSINR is the early-exit threshold scan the binary
// search replaced, kept as its referee.
func refCQIFromLinearSINR(sig, den float64) int {
	r := sig / den
	best := 0
	for best < 15 && r >= lteCQILinearMin[best+1] {
		best++
	}
	return best
}

// The four-probe binary search returns the scan's CQI for every ratio:
// within 64 ulps of each threshold, at the special values and
// subnormals (where the sign of r - t must still be exact), and over a
// million random ratios — log-uniform across -40..+50 dB and raw
// float64 bit patterns of either sign, NaNs included.
func TestLTECQILinearMatchesScan(t *testing.T) {
	check := func(r float64) {
		t.Helper()
		if got, want := LTECQIFromLinearSINR(r, 1), refCQIFromLinearSINR(r, 1); got != want {
			t.Fatalf("ratio %g (%#016x): binary search CQI %d, scan %d", r, math.Float64bits(r), got, want)
		}
	}
	for i := 1; i <= 15; i++ {
		r := lteCQILinearMin[i]
		for k := 0; k < 64; k++ {
			r = math.Nextafter(r, 0)
		}
		for k := 0; k <= 128; k++ {
			check(r)
			r = math.Nextafter(r, math.Inf(1))
		}
	}
	for _, r := range []float64{
		0, math.Copysign(0, -1), -1, -1e-300, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 0x1p-1030, math.Float64frombits(0x000fffffffffffff),
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64,
	} {
		check(r)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		if i%2 == 0 {
			check(math.Pow(10, (rng.Float64()*90-40)/10))
		} else {
			check(math.Float64frombits(rng.Uint64()))
		}
	}
}

func BenchmarkLTECQIFromSINRLog10(b *testing.B) {
	// Ratios spread across the CQI range, mimicking a city's SINR mix.
	ratios := cqiBenchRatios()
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ratios[i&255]
		sink += LTECQIFromSINR(10 * math.Log10(r))
	}
	_ = sink
}

func BenchmarkLTECQIFromLinearSINR(b *testing.B) {
	ratios := cqiBenchRatios()
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += LTECQIFromLinearSINR(ratios[i&255], 1)
	}
	_ = sink
}

func cqiBenchRatios() []float64 {
	ratios := make([]float64, 256)
	for i := range ratios {
		db := -10 + float64(i)*0.15 // -10..+28 dB
		ratios[i] = math.Pow(10, db/10)
	}
	return ratios
}
