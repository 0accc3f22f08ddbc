package lte

import (
	"math"
	"math/bits"
	"sync"
)

// twiddleCache holds forward twiddle factors w_n^k = exp(-2*pi*i*k/n)
// for k < n/2, keyed by n. Smaller stages reuse the table with a
// stride. Inverse transforms conjugate on the fly.
var twiddleCache sync.Map // map[int][]complex128

func twiddles(n int) []complex128 {
	if v, ok := twiddleCache.Load(n); ok {
		return v.([]complex128)
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, s)
	}
	twiddleCache.Store(n, tw)
	return tw
}

// This file implements the discrete Fourier transforms the PRACH
// detector needs: an iterative radix-2 FFT for power-of-two lengths and
// Bluestein's chirp-z algorithm for arbitrary lengths (PRACH preambles
// are 839 samples long, a prime).

// FFT computes the in-order forward DFT of x. The input length must be
// a power of two; use DFT for arbitrary lengths. The input slice is not
// modified.
func FFT(x []complex128) []complex128 {
	return fftDir(x, false)
}

// IFFT computes the inverse DFT (with 1/N normalization) of x. The
// input length must be a power of two.
func IFFT(x []complex128) []complex128 {
	y := fftDir(x, true)
	n := complex(float64(len(y)), 0)
	for i := range y {
		y[i] /= n
	}
	return y
}

func fftDir(x []complex128, inverse bool) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		panic("lte: FFT length must be a power of two")
	}
	y := make([]complex128, n)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		y[bits.Reverse64(uint64(i))>>shift] = x[i]
	}
	// Iterative Cooley-Tukey butterflies with cached twiddles. The
	// table for n serves every stage: stage `size` uses stride n/size.
	tw := twiddles(n)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		stride := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := tw[k*stride]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				a := y[start+k]
				b := y[start+k+half] * w
				y[start+k] = a + b
				y[start+k+half] = a - b
			}
		}
	}
	return y
}

// DFT computes the forward DFT of x for any length, through a one-shot
// DFTPlan: Bluestein's algorithm on top of the radix-2 FFT, or FFT
// directly for power-of-two lengths.
func DFT(x []complex128) []complex128 {
	return NewDFTPlan(len(x), false).Transform(x)
}

func cmplxConj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// DFTPlan precomputes the chirp sequences and reference spectra for
// repeated fixed-length transforms. For power-of-two lengths it
// delegates to the radix-2 FFT; otherwise it runs Bluestein with all
// per-call trigonometry and the kernel transform amortized away. The
// PRACH detector uses plans to stay far ahead of line rate.
type DFTPlan struct {
	n, m    int
	inverse bool
	chirp   []complex128 // nil for power-of-two lengths
	fb      []complex128 // FFT of the Bluestein kernel
}

// NewDFTPlan builds a plan for length-n transforms in the given
// direction.
func NewDFTPlan(n int, inverse bool) *DFTPlan {
	p := &DFTPlan{n: n, inverse: inverse}
	if n <= 0 || n&(n-1) == 0 {
		return p
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.m = m
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := sign * math.Pi * float64(kk) / float64(n)
		p.chirp[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	b := make([]complex128, m)
	b[0] = cmplxConj(p.chirp[0])
	for k := 1; k < n; k++ {
		c := cmplxConj(p.chirp[k])
		b[k] = c
		b[m-k] = c
	}
	p.fb = FFT(b)
	return p
}

// Transform applies the planned DFT to x (len(x) must equal the plan
// length) and returns a new slice.
func (p *DFTPlan) Transform(x []complex128) []complex128 {
	if len(x) != p.n {
		panic("lte: DFTPlan length mismatch")
	}
	if p.chirp == nil {
		if p.inverse {
			return IFFT(x)
		}
		return FFT(x)
	}
	a := make([]complex128, p.m)
	for k := 0; k < p.n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	fa := FFT(a)
	for i := range fa {
		fa[i] *= p.fb[i]
	}
	conv := IFFT(fa)
	out := make([]complex128, p.n)
	if p.inverse {
		nc := complex(float64(p.n), 0)
		for k := 0; k < p.n; k++ {
			out[k] = conv[k] * p.chirp[k] / nc
		}
	} else {
		for k := 0; k < p.n; k++ {
			out[k] = conv[k] * p.chirp[k]
		}
	}
	return out
}
