package lte

import (
	"math/cmplx"
	"testing"
)

// FuzzDFTRoundTrip: the inverse DFTPlan applied to the forward one
// must reproduce x for arbitrary lengths (Bluestein path included) and
// values.
func FuzzDFTRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 255, 0, 255, 0, 255, 0, 1, 2, 3})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 512 {
			return
		}
		x := make([]complex128, len(raw)/2+1)
		for i := range x {
			re := float64(int(raw[(2*i)%len(raw)]) - 128)
			im := float64(int(raw[(2*i+1)%len(raw)]) - 128)
			x[i] = complex(re, im)
		}
		y := NewDFTPlan(len(x), true).Transform(NewDFTPlan(len(x), false).Transform(x))
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-6*float64(len(x)+1)*256 {
				t.Fatalf("round trip diverged at %d: %v vs %v (n=%d)", i, y[i], x[i], len(x))
			}
		}
	})
}
