package lte

import (
	"math/rand"

	"cellfi/internal/phy"
)

// CQI reporting. LTE clients measure per-subchannel SINR and feed back
// channel-quality indicators. CellFi configures higher-layer aperiodic
// mode 3-0 sub-band reports every 2 ms (Section 5.1) and detects
// interference from drops in the reported values.

// CQIReport is one mode 3-0 report: a wideband CQI plus one CQI per
// subchannel (sub-band).
type CQIReport struct {
	Wideband int
	Subband  []int
	// Bits is the on-air payload of the report.
	Bits int
}

// CQIReporter quantizes a client's true per-subchannel SINRs into CQI
// reports, with optional measurement noise. One reporter models one
// client's feedback chain.
type CQIReporter struct {
	// NoiseProb is the probability that a sub-band CQI is off by one
	// step (either direction). The paper's detector is evaluated
	// against exactly this kind of imperfection.
	NoiseProb float64
	rng       *rand.Rand

	// Wideband EESM memo: the exact SINR ratio vector of the last
	// report and the CQI it quantized to. Within a fading coherence
	// block the vector repeats bit-for-bit, so an element-wise equality
	// check replaces the per-subband exp chain; any difference at all
	// recomputes. The memo draws nothing from rng, so the noise-draw
	// stream is unaffected.
	lastSinrs []float64
	lastWB    int
	lastSet   bool

	// lastScratch is ReportLinearInto's reusable ratio buffer.
	lastScratch []float64
}

// NewCQIReporter returns a reporter with the given measurement noise
// probability, using rng for the noise draws (may be nil when
// NoiseProb is zero).
func NewCQIReporter(noiseProb float64, rng *rand.Rand) *CQIReporter {
	return &CQIReporter{NoiseProb: noiseProb, rng: rng}
}

// ReportLinearInto builds a mode 3-0 report from true per-subchannel
// SINRs in the linear domain: sig[i]/den[i] is subchannel i's signal
// over interference-plus-noise, as produced by
// Environment.DownlinkSINRParts. The sub-band CQIs are written into the
// caller's sub slice (len(sub) must be at least len(sig)), so per-report
// callers like CellSim reuse one buffer instead of allocating every
// cycle; the returned report aliases sub. Sub-band CQIs come from the
// linear thresholds (bit-identical to quantizing 10*log10(sig/den), no
// log10 per sub-band); the wideband CQI comes from linear-domain EESM.
// Noise draws happen in sub-band order followed by the wideband
// computation, which draws nothing.
func (r *CQIReporter) ReportLinearInto(sig, den []float64, sub []int) CQIReport {
	sub = sub[:len(sig)]
	ratios := r.lastScratch[:0]
	for i := range sig {
		ratio := sig[i] / den[i]
		ratios = append(ratios, ratio)
		c := phy.LTECQIFromLinearSINR(sig[i], den[i])
		if r.NoiseProb > 0 && r.rng != nil && r.rng.Float64() < r.NoiseProb {
			if r.rng.Intn(2) == 0 {
				c--
			} else {
				c++
			}
			if c < 0 {
				c = 0
			}
			if c > phy.LTECQICount {
				c = phy.LTECQICount
			}
		}
		sub[i] = c
	}
	r.lastScratch = ratios
	return CQIReport{
		Wideband: r.wideband(ratios),
		Subband:  sub,
		Bits:     CQIReportBits,
	}
}

// wideband serves the EESM-derived wideband CQI through the memo.
func (r *CQIReporter) wideband(ratios []float64) int {
	if r.lastSet && len(r.lastSinrs) == len(ratios) {
		same := true
		for i, v := range ratios {
			if r.lastSinrs[i] != v {
				same = false
				break
			}
		}
		if same {
			return r.lastWB
		}
	}
	wb := phy.LTECQIFromSINR(phy.EffectiveSINRdBFromLinear(ratios))
	r.lastSinrs = append(r.lastSinrs[:0], ratios...)
	r.lastWB = wb
	r.lastSet = true
	return wb
}
