package lte

import (
	"math"
	"math/bits"
	"sync"
)

// This file implements the discrete Fourier transform the PRACH
// detector needs: an iterative radix-2 FFT. The detector zero-pads its
// 839-sample correlation to a 2048-point transform, so no other length
// is ever transformed.

// twiddleCache holds the twiddle factors of length-n transforms, keyed
// by n for the forward and -n for the inverse direction, laid out by
// stage: the stage of half-size h reads w_n^(k*n/(2h)), k < h, from
// tw[h-1 : 2h-1], so every stage walks its factors contiguously.
var twiddleCache sync.Map // map[int][]complex128

func twiddles(n int, inverse bool) []complex128 {
	key := n
	if inverse {
		key = -n
	}
	if v, ok := twiddleCache.Load(key); ok {
		return v.([]complex128)
	}
	base := make([]complex128, n/2)
	for k := range base {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		if inverse {
			s = -s
		}
		base[k] = complex(c, s)
	}
	tw := make([]complex128, 0, n)
	for h := 1; h < n; h <<= 1 {
		for k := 0; k < h; k++ {
			tw = append(tw, base[k*(n/(2*h))])
		}
	}
	twiddleCache.Store(key, tw)
	return tw
}

// FFT computes the in-order forward DFT of x. The input length must be
// a power of two. The input slice is not modified.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		panic("lte: FFT length must be a power of two")
	}
	y := make([]complex128, n)
	copy(y, x)
	fftInPlace(y, false)
	return y
}

// fftInPlace overwrites y (power-of-two length) with its unnormalized
// forward or inverse DFT.
func fftInPlace(y []complex128, inverse bool) {
	n := len(y)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); i < j {
			y[i], y[j] = y[j], y[i]
		}
	}
	// Iterative Cooley-Tukey butterflies with cached twiddles.
	tw := twiddles(n, inverse)
	for half := 1; half < n; half <<= 1 {
		w := tw[half-1 : 2*half-1]
		for start := 0; start < n; start += 2 * half {
			lo := y[start : start+half]
			hi := y[start+half : start+2*half]
			hi, w := hi[:len(lo)], w[:len(lo)]
			for k, a := range lo {
				b := hi[k] * w[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

func cmplxConj(c complex128) complex128 { return complex(real(c), -imag(c)) }
