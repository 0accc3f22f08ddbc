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

	// Wideband EESM memo: the exact SINR vector of the last report and
	// the CQI it quantized to. Within a fading coherence block the
	// vector repeats bit-for-bit, so an element-wise equality check
	// replaces the per-subband exp/pow chain; any difference at all
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

// Report builds a mode 3-0 report from true per-subchannel SINRs.
func (r *CQIReporter) Report(sinrsDB []float64) CQIReport {
	return r.ReportInto(sinrsDB, make([]int, len(sinrsDB)))
}

// ReportInto is Report writing the sub-band CQIs into the caller's sub
// slice (len(sub) must be at least len(sinrsDB)), so per-report callers
// like CellSim reuse one buffer instead of allocating every cycle. The
// returned report aliases sub. Noise draws happen in sub-band order
// followed by the wideband computation, exactly as Report always has,
// so rng streams stay aligned with pre-existing traces.
func (r *CQIReporter) ReportInto(sinrsDB []float64, sub []int) CQIReport {
	sub = sub[:len(sinrsDB)]
	for i, s := range sinrsDB {
		c := phy.LTECQIFromSINR(s)
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
	return CQIReport{
		Wideband: r.wideband(sinrsDB),
		Subband:  sub,
		Bits:     CQIReportBits,
	}
}

// ReportLinearInto is ReportInto fed linear-domain SINRs: sig[i]/den[i]
// is subchannel i's signal over interference-plus-noise, as produced by
// Environment.DownlinkSINRParts. Sub-band CQIs come from the linear
// thresholds (bit-identical to the dB chain, no log10 per sub-band);
// the wideband CQI comes from linear-domain EESM. Noise draws happen in
// sub-band order followed by the wideband computation, exactly like
// ReportInto, so the rng stream stays aligned. The wideband memo keys
// on the ratio vector, which repeats bit-for-bit within a coherence
// block just as the dB vector did.
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
		Wideband: r.widebandLinear(ratios),
		Subband:  sub,
		Bits:     CQIReportBits,
	}
}

// widebandLinear serves the wideband CQI from linear ratios through the
// same memo slot the dB path uses (the two entry points are never mixed
// on one reporter: the memo vector's domain follows the caller's).
func (r *CQIReporter) widebandLinear(ratios []float64) int {
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

// wideband serves the EESM-derived wideband CQI through the memo.
func (r *CQIReporter) wideband(sinrsDB []float64) int {
	if r.lastSet && len(r.lastSinrs) == len(sinrsDB) {
		same := true
		for i, s := range sinrsDB {
			if r.lastSinrs[i] != s {
				same = false
				break
			}
		}
		if same {
			return r.lastWB
		}
	}
	wb := phy.LTECQIFromSINR(phy.EffectiveSINRdB(sinrsDB))
	r.lastSinrs = append(r.lastSinrs[:0], sinrsDB...)
	r.lastWB = wb
	r.lastSet = true
	return wb
}
