// Package phy provides the physical-layer abstractions shared by the LTE
// and Wi-Fi substrates: modulation-and-coding tables, the SINR -> CQI ->
// spectral-efficiency mapping, and a block-error-rate model.
//
// The LTE table is 3GPP TS 36.213 Table 7.2.3-1 (the CQI table the paper
// relies on for its coding-rate observations in Figure 1b); the Wi-Fi
// table is the 802.11ac/af MCS ladder, whose minimum coding rate of 1/2
// is the PHY limitation Section 3.1 highlights.
package phy

import (
	"fmt"
	"math"
)

// Modulation identifies a constellation.
type Modulation int

const (
	QPSK Modulation = iota
	QAM16
	QAM64
	QAM256
	BPSK
)

// String returns the conventional modulation name.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16QAM"
	case QAM64:
		return "64QAM"
	case QAM256:
		return "256QAM"
	}
	return fmt.Sprintf("Modulation(%d)", int(m))
}

// Bits returns raw bits per modulation symbol.
func (m Modulation) Bits() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	case QAM256:
		return 8
	}
	return 0
}

// MCS is one modulation-and-coding scheme entry.
type MCS struct {
	Index      int
	Modulation Modulation
	// CodeRate is the channel coding rate (0..1).
	CodeRate float64
	// Efficiency is information bits per modulation symbol
	// (Modulation.Bits * CodeRate, as tabulated by the standard).
	Efficiency float64
	// MinSINRdB is the threshold at which this MCS achieves roughly
	// 10% BLER on the first transmission.
	MinSINRdB float64
}

// lteCQITable is TS 36.213 Table 7.2.3-1 with conventional 10%-BLER SINR
// switching thresholds (link-level results widely used in system
// simulators; about 2 dB per CQI step).
var lteCQITable = [16]MCS{
	{0, QPSK, 0, 0, math.Inf(1)}, // CQI 0: out of range
	{1, QPSK, 78.0 / 1024, 0.1523, -6.7},
	{2, QPSK, 120.0 / 1024, 0.2344, -4.7},
	{3, QPSK, 193.0 / 1024, 0.3770, -2.3},
	{4, QPSK, 308.0 / 1024, 0.6016, 0.2},
	{5, QPSK, 449.0 / 1024, 0.8770, 2.4},
	{6, QPSK, 602.0 / 1024, 1.1758, 4.3},
	{7, QAM16, 378.0 / 1024, 1.4766, 5.9},
	{8, QAM16, 490.0 / 1024, 1.9141, 8.1},
	{9, QAM16, 616.0 / 1024, 2.4063, 10.3},
	{10, QAM64, 466.0 / 1024, 2.7305, 11.7},
	{11, QAM64, 567.0 / 1024, 3.3223, 14.1},
	{12, QAM64, 666.0 / 1024, 3.9023, 16.3},
	{13, QAM64, 772.0 / 1024, 4.5234, 18.7},
	{14, QAM64, 873.0 / 1024, 5.1152, 21.0},
	{15, QAM64, 948.0 / 1024, 5.5547, 22.7},
}

// LTECQICount is the number of usable CQI indices (1..15).
const LTECQICount = 15

// LTECQI returns the MCS entry for CQI index i in 1..15.
// It panics on out-of-range indices; CQI 0 ("out of range") has no MCS.
func LTECQI(i int) MCS {
	if i < 1 || i > 15 {
		panic(fmt.Sprintf("phy: CQI index %d out of range 1..15", i))
	}
	return lteCQITable[i]
}

// LTECQIFromSINR maps a post-equalization SINR to the highest CQI whose
// threshold is met, or 0 if even CQI 1 cannot be decoded.
func LTECQIFromSINR(sinrDB float64) int {
	best := 0
	for i := 1; i <= 15; i++ {
		if sinrDB >= lteCQITable[i].MinSINRdB {
			best = i
		}
	}
	return best
}

// LTEMinSINRdB is the SINR below which no LTE transport format decodes
// (CQI 1 threshold).
const LTEMinSINRdB = -6.7

// wifiMCSTable is the 802.11ac/af single-stream ladder. The minimum
// coding rate is 1/2 (MCS 0), the PHY constraint the paper contrasts
// with LTE's 0.1 floor.
var wifiMCSTable = []MCS{
	{0, BPSK, 0.5, 0.5, 2.0},
	{1, QPSK, 0.5, 1.0, 5.0},
	{2, QPSK, 0.75, 1.5, 9.0},
	{3, QAM16, 0.5, 2.0, 11.0},
	{4, QAM16, 0.75, 3.0, 15.0},
	{5, QAM64, 2.0 / 3, 4.0, 18.0},
	{6, QAM64, 0.75, 4.5, 20.0},
	{7, QAM64, 5.0 / 6, 5.0, 25.0},
	{8, QAM256, 0.75, 6.0, 29.0},
	{9, QAM256, 5.0 / 6, 20.0 / 3, 31.0},
}

// WiFiMinSINRdB is the decode floor of the lowest 802.11 MCS.
const WiFiMinSINRdB = 2.0

// WiFiMCSFromSINR returns the best Wi-Fi MCS for the given SINR (ideal
// rate adaptation, as the paper's ns-3 configuration uses). ok is false
// when the SINR is below the MCS 0 threshold.
func WiFiMCSFromSINR(sinrDB float64) (mcs MCS, ok bool) {
	for i := len(wifiMCSTable) - 1; i >= 0; i-- {
		if sinrDB >= wifiMCSTable[i].MinSINRdB {
			return wifiMCSTable[i], true
		}
	}
	return MCS{}, false
}

// WiFiMCS returns Wi-Fi MCS index i.
func WiFiMCS(i int) MCS {
	if i < 0 || i >= len(wifiMCSTable) {
		panic(fmt.Sprintf("phy: Wi-Fi MCS index %d out of range", i))
	}
	return wifiMCSTable[i]
}

// WiFiMCSCount is the number of Wi-Fi MCS entries.
func WiFiMCSCount() int { return len(wifiMCSTable) }

// BLER estimates the block error rate of transmitting with the given MCS
// at the given SINR. At the switching threshold the BLER is the target
// 10%; each dB below the threshold roughly triples the error rate and
// each dB above cuts it, following the familiar waterfall shape of turbo
// and convolutional codes.
func BLER(sinrDB float64, mcs MCS) float64 {
	if math.IsInf(mcs.MinSINRdB, 1) {
		return 1
	}
	margin := sinrDB - mcs.MinSINRdB
	// Waterfall: 10% at threshold, slope ~0.5 decades per dB.
	bler := 0.1 * math.Pow(10, -0.5*margin)
	if bler > 1 {
		return 1
	}
	if bler < 1e-6 {
		return 1e-6
	}
	return bler
}

// EffectiveSINRdB combines per-subcarrier or per-subchannel SINRs into a
// single effective value using the exponential effective SINR mapping
// (EESM) with beta=1, i.e. a capacity-style average in the linear domain
// of exp(-sinr). This is how wideband CQI summarizes frequency-selective
// conditions.
func EffectiveSINRdB(sinrsDB []float64) float64 {
	if len(sinrsDB) == 0 {
		return math.Inf(-1)
	}
	sum := 0.0
	for _, s := range sinrsDB {
		sum += math.Exp(-math.Pow(10, s/10))
	}
	avg := sum / float64(len(sinrsDB))
	if avg >= 1 {
		// All SINRs effectively zero or negative-infinite.
		return -30
	}
	return 10 * math.Log10(-math.Log(avg))
}

// EffectiveSINRdBFromLinear is EffectiveSINRdB taking the per-subchannel
// SINRs as linear ratios: EESM works in the linear domain natively, so
// the ratio form drops the pow(10, s/10) per subchannel. Given
// r = pow(10, s/10) it returns EffectiveSINRdB(s) up to that round
// trip's rounding (EESM feeds a ~2 dB-wide CQI quantizer, so the last-
// ulp wobble is immaterial — unlike the per-subband thresholds, which
// stay exact via LTECQIFromLinearSINR).
func EffectiveSINRdBFromLinear(ratios []float64) float64 {
	if len(ratios) == 0 {
		return math.Inf(-1)
	}
	sum := 0.0
	for _, r := range ratios {
		sum += math.Exp(-r)
	}
	avg := sum / float64(len(ratios))
	if avg >= 1 {
		return -30
	}
	return 10 * math.Log10(-math.Log(avg))
}
