package phy

import "math"

// lteCQILinearMin[i] is the smallest float64 ratio r for which
// 10*math.Log10(r) >= lteCQITable[i].MinSINRdB. Comparing a linear
// signal/denominator ratio against these thresholds therefore gives the
// exact integer CQI the dB chain would — bit for bit, with no log10 per
// report. The table is derived at init by a bit-level binary search over
// the log-domain predicate itself (not pow(10, T/10), which can land one
// ULP off), relying only on 10*Log10 being monotone over positive
// float64s. TestLTECQILinearExhaustive and TestLTECQILinearThresholdULPs
// prove the equivalence.
var lteCQILinearMin [16]float64

func init() {
	lteCQILinearMin[0] = math.Inf(1) // CQI 0: out of range, never reached
	for i := 1; i <= 15; i++ {
		lteCQILinearMin[i] = MinRatioForDB(lteCQITable[i].MinSINRdB)
	}
}

// MinRatioForDB returns the smallest positive float64 r satisfying
// 10*math.Log10(r) >= db, by binary search over the ordered bit patterns
// of positive float64s. For every positive x, x >= MinRatioForDB(db)
// decides exactly what 10*math.Log10(x) >= db does, which makes it the
// linear-domain threshold for any dB or dBm level (wifi's energy-detect
// test uses it in mW).
func MinRatioForDB(db float64) float64 {
	lo := math.Float64bits(math.SmallestNonzeroFloat64)
	hi := math.Float64bits(math.MaxFloat64)
	if 10*math.Log10(math.Float64frombits(hi)) < db {
		return math.Inf(1)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if 10*math.Log10(math.Float64frombits(mid)) >= db {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return math.Float64frombits(lo)
}

// LTECQIFromLinearSINR maps a linear-domain SINR, given as a signal
// power and a positive interference-plus-noise denominator (any common
// unit), to the same CQI LTECQIFromSINR(10*log10(sig/den)) returns —
// without the log10. Degenerate inputs follow the dB chain too: a zero
// or negative signal, or a NaN, yields CQI 0, and sig = +Inf (or den
// +Inf with sig finite) matches the -Inf/+Inf dB behavior because the
// division produces the identical ratio the log chain would see.
//
// The CQI is the number of thresholds lteCQILinearMin[1..15] that r
// reaches, found by a four-probe binary search over the ascending
// table. Each probe adds its step unless r is below the threshold, read
// from the sign of their difference rather than branched on: a compare
// whose result picks the next probe's index compiles to a jump in Go,
// and on a spread of CQIs those jumps mispredict about as often as not.
func LTECQIFromLinearSINR(sig, den float64) int {
	r := sig / den
	if math.IsNaN(r) {
		return 0
	}
	i := 8 &^ below(r, lteCQILinearMin[8])
	i += 4 &^ below(r, lteCQILinearMin[i+4])
	i += 2 &^ below(r, lteCQILinearMin[i+2])
	i += 1 &^ below(r, lteCQILinearMin[i+1])
	return i
}

// below returns -1 (every bit set) when r < t and 0 when r >= t, for a
// non-NaN r and a finite t: the sign bit of r - t. The sign is exact
// because subtraction rounds toward, never across, zero, and with
// gradual underflow r - t is zero only when r == t, where it is +0.
func below(r, t float64) int {
	return int(int64(math.Float64bits(r-t)) >> 63)
}
