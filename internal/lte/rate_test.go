package lte

import (
	"math"
	"testing"

	"cellfi/internal/phy"
)

func TestTransportBlockBits(t *testing.T) {
	if got := TransportBlockBits(0, 10); got != 0 {
		t.Errorf("CQI 0 carries %d bits, want 0", got)
	}
	if got := TransportBlockBits(5, 0); got != 0 {
		t.Errorf("0 RBs carry %d bits, want 0", got)
	}
	// CQI 15 over 2 RBs: 5.5547 * 2 * 126 = 1399 bits.
	want := int(phy.LTECQI(15).Efficiency * 2 * DataREPerRBPerSubframe)
	if got := TransportBlockBits(15, 2); got != want {
		t.Errorf("TBS(15, 2RB) = %d, want %d", got, want)
	}
	// Monotone in both arguments.
	for cqi := 2; cqi <= 15; cqi++ {
		if TransportBlockBits(cqi, 4) <= TransportBlockBits(cqi-1, 4) {
			t.Errorf("TBS not monotone in CQI at %d", cqi)
		}
	}
	if TransportBlockBits(8, 5) <= TransportBlockBits(8, 4) {
		t.Error("TBS not monotone in RBs")
	}
}

// peakRateBps is the full-carrier downlink rate at the top CQI: the
// cell's PHY ceiling.
func peakRateBps(bw Bandwidth, tdd TDDConfig) float64 {
	bits := TransportBlockBits(phy.LTECQICount, bw.ResourceBlocks())
	return float64(bits) / SubframeDuration.Seconds() * tdd.DownlinkFraction()
}

// The cell's PHY ceiling must land in the real-LTE ballpark: a 5 MHz
// TDD carrier peaks around 12-14 Mbps downlink (FDD would be ~18 Mbps).
func TestPeakRatePlausible(t *testing.T) {
	peak := peakRateBps(BW5MHz, TDDConfig4)
	if peak < 10e6 || peak > 16e6 {
		t.Fatalf("5 MHz TDD peak = %.1f Mbps, want 10-16", peak/1e6)
	}
	peak20 := peakRateBps(BW20MHz, TDDConfig4)
	if peak20 < 3.8*peak || peak20 > 4.2*peak {
		t.Fatalf("20 MHz peak should be ~4x the 5 MHz peak (got %.1f vs %.1f Mbps)",
			peak20/1e6, peak/1e6)
	}
}

// The paper's 1 Mbps per-user requirement is within a single carrier
// down to roughly CQI 4, and the lowest coding rates still deliver
// usable hundreds of kbps — the "1 Mbps at 85% of locations" regime.
func TestEdgeRateMeetsRequirement(t *testing.T) {
	rate := func(cqi int) float64 {
		bits := TransportBlockBits(cqi, BW5MHz.ResourceBlocks())
		return float64(bits) / SubframeDuration.Seconds() * TDDConfig4.DownlinkFraction()
	}
	if r := rate(4); r < 1e6 {
		t.Fatalf("CQI 4 full-carrier rate = %.2f Mbps, want >= 1", r/1e6)
	}
	if r := rate(3); r < 0.5e6 {
		t.Fatalf("CQI 3 full-carrier rate = %.2f Mbps, want >= 0.5", r/1e6)
	}
}

func TestSubchannelRateBps(t *testing.T) {
	// Sum of subchannel rates equals the full-carrier rate at the
	// same CQI (subchannels partition the carrier).
	var sum float64
	for sc := 0; sc < BW5MHz.Subchannels(); sc++ {
		sum += SubchannelRateBps(BW5MHz, TDDConfig4, sc, 10)
	}
	full := float64(TransportBlockBits(10, 25)) / SubframeDuration.Seconds() * TDDConfig4.DownlinkFraction()
	if math.Abs(sum-full)/full > 0.01 {
		t.Fatalf("subchannel rates sum to %g, full carrier %g", sum, full)
	}
}

func TestGoodputBitsPerSymbol(t *testing.T) {
	if GoodputBitsPerSymbol(0, 0) != 0 {
		t.Error("CQI 0 should carry nothing")
	}
	g := GoodputBitsPerSymbol(6, 0)
	want := phy.LTECQI(6).Efficiency
	if math.Abs(g-want) > 1e-12 {
		t.Errorf("goodput at BLER 0 = %g, want efficiency %g", g, want)
	}
	if got := GoodputBitsPerSymbol(6, 0.5); math.Abs(got-want/2) > 1e-12 {
		t.Errorf("goodput at BLER 0.5 = %g, want %g", got, want/2)
	}
	// The Figure 7 y-axis tops out around 1 bit/symbol for the mid
	// CQIs the outdoor walk actually achieves.
	if g := GoodputBitsPerSymbol(6, 0.1); g < 0.9 || g > 1.2 {
		t.Errorf("CQI 6 goodput = %g bit/symbol; Figure 7's scale expects ~1", g)
	}
}
