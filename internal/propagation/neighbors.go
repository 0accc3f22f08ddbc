package propagation

import "math"

// DefaultInterferenceDeltaDB is the default noise-floor margin for
// InterferenceRadius: a transmitter whose median received power is this
// many dB below the thermal noise floor moves the interference
// denominator by <0.3% and is treated as insignificant.
const DefaultInterferenceDeltaDB = 10

// InterferenceRadius returns the interference-significance radius in
// metres: the distance at which a transmitter at eirpDBm falls
// deltaDB below the noise floor noiseDBm under the median path loss,
// with a 3-sigma shadowing allowance so links the shadowing term
// happens to favor are still inside the radius. Beyond this distance a
// single interferer perturbs the SINR denominator by less than
// 10^(-delta/10) of noise; the truncation-correctness argument lives in
// DESIGN.md.
//
// The log-distance model inverts in closed form:
//
//	maxLoss = EIRP - (noise - delta) + 3*sigma
//	d       = RefDist * 10^((maxLoss - RefLossDB) / (10 * Exponent))
//
// Distances at or below RefDist (pathological parameters) clamp to
// RefDist.
func (m *Model) InterferenceRadius(eirpDBm, noiseDBm, deltaDB float64) float64 {
	maxLoss := eirpDBm - (noiseDBm - deltaDB) + 3*m.ShadowSigmaDB
	if maxLoss <= m.RefLossDB {
		return m.RefDist
	}
	return m.RefDist * math.Pow(10, (maxLoss-m.RefLossDB)/(10*m.Exponent))
}
