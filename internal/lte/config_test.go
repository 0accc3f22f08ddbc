package lte

import (
	"math"
	"testing"
)

func TestBandwidthGrid(t *testing.T) {
	cases := []struct {
		bw              Bandwidth
		rbs, subch, rbg int
	}{
		{BW5MHz, 25, 13, 2},
		{BW10MHz, 50, 17, 3},
		{BW15MHz, 75, 19, 4},
		{BW20MHz, 100, 25, 4},
	}
	for _, c := range cases {
		if got := c.bw.ResourceBlocks(); got != c.rbs {
			t.Errorf("%d MHz RBs = %d, want %d", c.bw, got, c.rbs)
		}
		if got := c.bw.Subchannels(); got != c.subch {
			t.Errorf("%d MHz subchannels = %d, want %d", c.bw, got, c.subch)
		}
		if got := c.bw.RBGSize(); got != c.rbg {
			t.Errorf("%d MHz RBG = %d, want %d", c.bw, got, c.rbg)
		}
	}
}

// The paper: "there are 13 such subchannels on 5MHz channel and 25
// subchannels on a 20 MHz channel" (Section 5).
func TestPaperSubchannelCounts(t *testing.T) {
	if BW5MHz.Subchannels() != 13 || BW20MHz.Subchannels() != 25 {
		t.Fatal("subchannel counts disagree with the paper")
	}
}

func TestSubchannelRBsPartition(t *testing.T) {
	for _, bw := range []Bandwidth{BW5MHz, BW10MHz, BW15MHz, BW20MHz} {
		total := 0
		for i := 0; i < bw.Subchannels(); i++ {
			rbs := bw.SubchannelRBs(i)
			if rbs <= 0 || rbs > bw.RBGSize() {
				t.Errorf("%d MHz subchannel %d spans %d RBs", bw, i, rbs)
			}
			total += rbs
		}
		if total != bw.ResourceBlocks() {
			t.Errorf("%d MHz subchannels cover %d RBs, want %d", bw, total, bw.ResourceBlocks())
		}
	}
}

func TestSubchannelRBsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range subchannel should panic")
		}
	}()
	BW5MHz.SubchannelRBs(13)
}

func TestSubchannelHz(t *testing.T) {
	if got := BW5MHz.SubchannelHz(0); got != 360e3 {
		t.Errorf("first 5 MHz subchannel = %g Hz, want 360 kHz", got)
	}
	if got := BW5MHz.SubchannelHz(12); got != 180e3 {
		t.Errorf("last 5 MHz subchannel = %g Hz, want 180 kHz", got)
	}
}

// TDD configuration 4: 7 downlink, 2 uplink, 1 special (Section 6.3.4).
func TestTDDConfig4Pattern(t *testing.T) {
	var d, u, s int
	for i := int64(0); i < 10; i++ {
		switch TDDConfig4.Kind(i) {
		case Downlink:
			d++
		case Uplink:
			u++
		case Special:
			s++
		}
	}
	if d != 7 || u != 2 || s != 1 {
		t.Fatalf("TDD-4 pattern %dD/%dU/%dS, want 7/2/1", d, u, s)
	}
	// Pattern repeats every frame.
	if TDDConfig4.Kind(0) != TDDConfig4.Kind(10) || TDDConfig4.Kind(3) != TDDConfig4.Kind(23) {
		t.Fatal("TDD pattern does not repeat per frame")
	}
}

func TestTDDFractions(t *testing.T) {
	if got := TDDConfig4.DownlinkFraction(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("DL fraction = %g, want 0.75 (7 + half the special)", got)
	}
	if got := TDDConfig4.UplinkFraction(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("UL fraction = %g, want 0.2", got)
	}
}

// Section 6.3.4: "The overhead of signaling is 10 Kbps on the uplink
// for a reporting period of 2 ms."
func TestCQISignalingOverhead(t *testing.T) {
	if got := CQISignalingOverheadBps(); math.Abs(got-10e3) > 1 {
		t.Fatalf("CQI signalling overhead = %g bps, want 10 kbps", got)
	}
}

func TestEARFCNRoundTrip(t *testing.T) {
	for _, f := range []float64{474e6, 600e6, 695e6} {
		e := EARFCNFromFreq(f)
		if got := float64(e) * 100e3; got != f {
			t.Errorf("EARFCN round-trip %g -> %d -> %g", f, e, got)
		}
	}
	// 100 kHz granularity (Section 4.2): sub-100kHz detail is dropped.
	if EARFCNFromFreq(474.05e6) != EARFCNFromFreq(474.0e6) {
		t.Error("EARFCN granularity should be 100 kHz")
	}
}

func TestSubframeKindString(t *testing.T) {
	if Downlink.String() != "D" || Uplink.String() != "U" || Special.String() != "S" {
		t.Fatal("subframe kind strings wrong")
	}
}

// TS 36.211 Table 4.2-2 sanity: per-configuration DL/UL/S counts.
func TestAllTDDConfigs(t *testing.T) {
	wantDL := [7]int{2, 4, 6, 6, 7, 8, 3}
	wantUL := [7]int{6, 4, 2, 3, 2, 1, 5}
	wantS := [7]int{2, 2, 2, 1, 1, 1, 2}
	for i, cfg := range TDDConfigs {
		var d, u, s int
		for _, k := range cfg.Pattern {
			switch k {
			case Downlink:
				d++
			case Uplink:
				u++
			case Special:
				s++
			}
		}
		if d+u+s != 10 {
			t.Fatalf("%s pattern length wrong", cfg.Name)
		}
		if d != wantDL[i] {
			t.Errorf("%s downlink subframes = %d, want %d", cfg.Name, d, wantDL[i])
		}
		if u != wantUL[i] {
			t.Errorf("%s uplink subframes = %d, want %d", cfg.Name, u, wantUL[i])
		}
		if s != wantS[i] {
			t.Errorf("%s special subframes = %d, want %d", cfg.Name, s, wantS[i])
		}
		// Every configuration starts with a downlink subframe and has
		// a special subframe at index 1 (the standard's invariant).
		if cfg.Pattern[0] != Downlink || cfg.Pattern[1] != Special {
			t.Errorf("%s does not start D,S", cfg.Name)
		}
		// DL+UL fractions stay sane.
		if f := cfg.DownlinkFraction() + cfg.UplinkFraction(); f < 0.8 || f > 1.0 {
			t.Errorf("%s fractions sum to %g", cfg.Name, f)
		}
	}
	if TDDConfigs[4].Name != TDDConfig4.Name {
		t.Fatal("TDDConfig4 alias broken")
	}
}
