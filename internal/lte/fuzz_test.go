package lte

import (
	"bytes"
	"math/cmplx"
	"testing"
)

// FuzzUnmarshalDCI: the grant decoder never panics on arbitrary bytes,
// and any input it accepts re-marshals to the same leading 57 bits —
// the codec's whole payload (the 7 padding bits and any trailing bytes
// are not read).
func FuzzUnmarshalDCI(f *testing.F) {
	valid, _ := DCI{RNTI: 61, RBGMask: 0b1010110, CQI: 9, HARQProcess: 3, NewData: true}.MarshalAppend(nil, BW5MHz)
	f.Add(valid, uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{dciMagic}, uint8(2))
	f.Add([]byte{dciMagic, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(3))
	bws := []Bandwidth{BW5MHz, BW10MHz, BW15MHz, BW20MHz}
	f.Fuzz(func(t *testing.T, raw []byte, bwSel uint8) {
		bw := bws[int(bwSel)%len(bws)]
		d, err := UnmarshalDCI(raw, bw)
		if err != nil {
			return
		}
		out, err := d.MarshalAppend(nil, bw)
		if err != nil {
			t.Fatalf("accepted %x as %+v, which does not re-marshal: %v", raw, d, err)
		}
		if !bytes.Equal(out[:7], raw[:7]) || out[7]&0x80 != raw[7]&0x80 {
			t.Fatalf("accepted %x as %+v, which re-marshals to %x", raw, d, out)
		}
	})
}

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
