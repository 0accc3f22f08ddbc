// Package lte implements the LTE substrate CellFi is built on: the
// resource-block/subchannel grid, TDD frame structure, per-subframe MAC
// scheduling, HARQ, CQI reporting (wideband and aperiodic mode 3-0
// sub-band reports), and PRACH — Zadoff-Chu preamble generation plus
// both a conventional detector and the paper's low-complexity
// cyclic-shift detector (Section 6.3.3).
package lte

import (
	"fmt"
	"time"
)

// Bandwidth is an LTE channel bandwidth.
type Bandwidth int

// LTE TDD channel bandwidths the PHY supports in TVWS (Section 3.1).
const (
	BW5MHz  Bandwidth = 5
	BW10MHz Bandwidth = 10
	BW15MHz Bandwidth = 15
	BW20MHz Bandwidth = 20
)

// Hz returns the bandwidth in hertz.
func (b Bandwidth) Hz() float64 { return float64(b) * 1e6 }

// ResourceBlocks returns the number of 180 kHz resource blocks.
func (b Bandwidth) ResourceBlocks() int {
	switch b {
	case BW5MHz:
		return 25
	case BW10MHz:
		return 50
	case BW15MHz:
		return 75
	case BW20MHz:
		return 100
	}
	panic(fmt.Sprintf("lte: invalid bandwidth %d", b))
}

// Subchannels returns the number of schedulable subchannels — the
// minimal sets of resource blocks that can be scheduled and for which
// sub-band channel-quality information exists (Section 5: 13 on a 5 MHz
// channel, 25 on 20 MHz). These correspond to resource-block groups.
func (b Bandwidth) Subchannels() int {
	switch b {
	case BW5MHz:
		return 13 // RBG size 2: 12 groups of 2 + 1 of 1
	case BW10MHz:
		return 17 // RBG size 3: 16 groups of 3 + 1 of 2
	case BW15MHz:
		return 19 // RBG size 4: 18 groups of 4 + 1 of 3
	case BW20MHz:
		return 25 // RBG size 4: 25 groups of 4
	}
	panic(fmt.Sprintf("lte: invalid bandwidth %d", b))
}

// RBGSize returns the resource-block-group size for the bandwidth
// (TS 36.213 Table 7.1.6.1-1).
func (b Bandwidth) RBGSize() int {
	switch b {
	case BW5MHz:
		return 2
	case BW10MHz:
		return 3
	case BW15MHz, BW20MHz:
		return 4
	}
	panic(fmt.Sprintf("lte: invalid bandwidth %d", b))
}

// SubchannelRBs returns how many resource blocks subchannel i spans.
// The last group may be smaller than the RBG size.
func (b Bandwidth) SubchannelRBs(i int) int {
	n := b.Subchannels()
	if i < 0 || i >= n {
		panic(fmt.Sprintf("lte: subchannel %d out of range 0..%d", i, n-1))
	}
	if i < n-1 {
		return b.RBGSize()
	}
	rem := b.ResourceBlocks() - (n-1)*b.RBGSize()
	return rem
}

// SubchannelHz returns the occupied bandwidth of subchannel i.
func (b Bandwidth) SubchannelHz(i int) float64 {
	return float64(b.SubchannelRBs(i)) * 180e3
}

// Frame and scheduling timing constants.
const (
	// SubframeDuration is the LTE TTI.
	SubframeDuration = time.Millisecond
	// RBBandwidthHz is one resource block's bandwidth.
	RBBandwidthHz = 180e3
)

// DataREPerRBPerSubframe is the number of resource elements carrying
// user data in one RB over one subframe: 12 subcarriers x 14 OFDM
// symbols = 168 REs, of which roughly 25% carry reference signals and
// control (PDCCH, PCFICH, CRS), leaving 126.
const DataREPerRBPerSubframe = 126

// SubframeKind classifies TDD subframes.
type SubframeKind int

const (
	Downlink SubframeKind = iota
	Uplink
	Special
)

func (k SubframeKind) String() string {
	switch k {
	case Downlink:
		return "D"
	case Uplink:
		return "U"
	case Special:
		return "S"
	}
	return "?"
}

// TDDConfig is a TDD uplink/downlink configuration: the kind of each of
// the 10 subframes in a frame.
type TDDConfig struct {
	Name    string
	Pattern [10]SubframeKind
}

// TDDConfigs holds all seven 3GPP TDD UL/DL configurations
// (TS 36.211 Table 4.2-2). Index 4 — DSUUDDDDDD, 7 downlink and 2
// uplink subframes per frame — is the one the paper's evaluation uses
// (Section 6.3.4).
var TDDConfigs = [7]TDDConfig{
	{Name: "TDD-0", Pattern: [10]SubframeKind{Downlink, Special, Uplink, Uplink, Uplink, Downlink, Special, Uplink, Uplink, Uplink}},
	{Name: "TDD-1", Pattern: [10]SubframeKind{Downlink, Special, Uplink, Uplink, Downlink, Downlink, Special, Uplink, Uplink, Downlink}},
	{Name: "TDD-2", Pattern: [10]SubframeKind{Downlink, Special, Uplink, Downlink, Downlink, Downlink, Special, Uplink, Downlink, Downlink}},
	{Name: "TDD-3", Pattern: [10]SubframeKind{Downlink, Special, Uplink, Uplink, Uplink, Downlink, Downlink, Downlink, Downlink, Downlink}},
	{Name: "TDD-4", Pattern: [10]SubframeKind{Downlink, Special, Uplink, Uplink, Downlink, Downlink, Downlink, Downlink, Downlink, Downlink}},
	{Name: "TDD-5", Pattern: [10]SubframeKind{Downlink, Special, Uplink, Downlink, Downlink, Downlink, Downlink, Downlink, Downlink, Downlink}},
	{Name: "TDD-6", Pattern: [10]SubframeKind{Downlink, Special, Uplink, Uplink, Uplink, Downlink, Special, Uplink, Uplink, Downlink}},
}

// TDDConfig4 is the evaluation's configuration (7 DL / 2 UL / 1 S).
var TDDConfig4 = TDDConfigs[4]

// Kind returns the kind of the subframe with the given absolute index.
func (c TDDConfig) Kind(subframe int64) SubframeKind {
	return c.Pattern[subframe%10]
}

// DownlinkFraction returns the fraction of subframes that carry
// downlink data. The special subframe's DwPTS carries downlink too; we
// count it as half.
func (c TDDConfig) DownlinkFraction() float64 {
	var dl float64
	for _, k := range c.Pattern {
		switch k {
		case Downlink:
			dl++
		case Special:
			dl += 0.5
		}
	}
	return dl / 10
}

// UplinkFraction returns the fraction of subframes carrying uplink.
func (c TDDConfig) UplinkFraction() float64 {
	var ul float64
	for _, k := range c.Pattern {
		if k == Uplink {
			ul++
		}
	}
	return ul / 10
}

// CellFi sensing/reporting cadence constants (Sections 5.1 and 6.3.4).
const (
	// CQIReportPeriod is the aperiodic mode 3-0 sub-band CQI cadence.
	CQIReportPeriod = 2 * time.Millisecond
	// CQIReportBits is the payload of one mode 3-0 report on 5 MHz:
	// one 4-bit wideband value plus 13 two-bit sub-band values,
	// reported by the paper as 20 bits.
	CQIReportBits = 20
	// PRACHDetectFloorDB is the SNR down to which a PRACH preamble is
	// reliably detectable.
	PRACHDetectFloorDB = -10
)

// CQISignalingOverheadBps returns the uplink signalling load of
// aperiodic CQI reporting (the paper: 20 bits / 2 ms = 10 kbps).
func CQISignalingOverheadBps() float64 {
	return CQIReportBits / CQIReportPeriod.Seconds()
}

// EARFCNFromFreq converts a downlink centre frequency to a pseudo-EARFCN
// in 100 kHz granularity, as the SIB carries it (Section 4.2). The
// offset is arbitrary but stable, mirroring how 3GPP numbers new bands.
func EARFCNFromFreq(freqHz float64) int {
	return int(freqHz / 100e3)
}
