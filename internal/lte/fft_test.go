package lte

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(N^2) reference implementation tests compare against.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			acc += x[t] * cmplx.Exp(complex(0, ang))
		}
		if inverse {
			acc /= complex(float64(n), 0)
		}
		out[k] = acc
	}
	return out
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestFFTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256, 1024} {
		x := randComplex(rng, n)
		if e := maxErr(FFT(x), naiveDFT(x, false)); e > 1e-8*float64(n) {
			t.Errorf("FFT n=%d max error %g", n, e)
		}
	}
}

func TestFFTPanicsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT(len 3) should panic")
		}
	}()
	FFT(make([]complex128, 3))
}

// ifft is the normalized inverse of FFT, built on the detector's
// unnormalized in-place inverse.
func ifft(x []complex128) []complex128 {
	y := append([]complex128(nil), x...)
	fftInPlace(y, true)
	n := complex(float64(len(y)), 0)
	for i := range y {
		y[i] /= n
	}
	return y
}

func TestIDFTInverts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 8, 64, 1024, 2048} {
		x := randComplex(rng, n)
		if n <= 64 {
			if e := maxErr(ifft(x), naiveDFT(x, true)); e > 1e-8*float64(n) {
				t.Errorf("inverse n=%d max error %g against the naive inverse", n, e)
			}
		}
		if e := maxErr(ifft(FFT(x)), x); e > 1e-8*float64(n) {
			t.Errorf("inverse(FFT) n=%d round-trip error %g", n, e)
		}
	}
}

func TestDFTKnownValues(t *testing.T) {
	// DFT of an impulse is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	for _, v := range FFT(x) {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse DFT value %v, want 1", v)
		}
	}
	// DFT of all-ones is an impulse of height N.
	for i := range x {
		x[i] = 1
	}
	y := FFT(x)
	if cmplx.Abs(y[0]-8) > 1e-12 {
		t.Fatalf("DC bin = %v, want 8", y[0])
	}
	for _, v := range y[1:] {
		if cmplx.Abs(v) > 1e-12 {
			t.Fatalf("non-DC bin %v, want 0", v)
		}
	}
}

func TestParsevalEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{64, 2048} {
		x := randComplex(rng, n)
		var et, ef float64
		for _, v := range x {
			et += real(v)*real(v) + imag(v)*imag(v)
		}
		for _, v := range FFT(x) {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		ef /= float64(n)
		if math.Abs(et-ef)/et > 1e-10 {
			t.Errorf("Parseval violated at n=%d: time %g freq %g", n, et, ef)
		}
	}
}

func TestEmptyTransforms(t *testing.T) {
	if FFT(nil) != nil {
		t.Fatal("empty input should return nil")
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := randComplex(rand.New(rand.NewSource(1)), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FFT(x)
	}
}
