package lte

import (
	"cellfi/internal/phy"
)

// TransportBlockBits returns the number of information bits carried by
// one subframe transmission spanning the given number of resource
// blocks at the given CQI. CQI 0 carries nothing. Served from the
// init-time tables in tables.go for every in-range (cqi, rbs) pair.
func TransportBlockBits(cqi, rbs int) int {
	if cqi <= 0 || rbs <= 0 {
		return 0
	}
	if cqi <= phy.LTECQICount && rbs <= tbsMaxRBs {
		return int(tbsByRB[cqi][rbs])
	}
	return transportBlockBitsMath(cqi, rbs)
}

// SubchannelRateBps returns the steady-state downlink data rate of one
// subchannel at the given CQI, accounting for the TDD downlink duty
// cycle. This is the fluid-model rate used by the large-scale
// evaluation.
func SubchannelRateBps(bw Bandwidth, tdd TDDConfig, subchannel, cqi int) float64 {
	bits := TransportBlockBits(cqi, bw.SubchannelRBs(subchannel))
	return float64(bits) / SubframeDuration.Seconds() * tdd.DownlinkFraction()
}

// GoodputBitsPerSymbol converts a CQI and block error rate into the
// paper's Figure 7 metric: information bits per modulation symbol,
// bit/symbol = coding_rate * modulation_bits * (1 - BLER).
func GoodputBitsPerSymbol(cqi int, bler float64) float64 {
	if cqi <= 0 {
		return 0
	}
	m := phy.LTECQI(cqi)
	return m.Efficiency * (1 - bler)
}
