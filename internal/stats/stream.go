package stats

import (
	"fmt"
	"math"
)

// Streaming statistics for city-scale runs: a metric observed once per
// UE per epoch at 100k UEs produces hundreds of millions of samples per
// simulated hour, far past what CDF's retained-sample model can hold.
// QuantileSketch absorbs an unbounded stream in bounded memory and
// merges exactly across shards.
//
// The sketch is a log-bucket (DDSketch-family) design rather than P² or
// Greenwald-Khanna: buckets are fixed functions of the value alone, so
// merging two sketches is an exact bucket-wise add — merge(a,b) answers
// queries identically to a single sketch that saw both streams, in any
// merge order. P² keeps five order-dependent markers and cannot merge;
// GK merges only by inflating its error bound. Exact merge is what a
// sharded metro run needs, and the price — a fixed relative error α on
// the value axis instead of a rank guarantee — is the right trade for
// heavy-tailed throughput/latency metrics.

// DefaultSketchAlpha is the default relative accuracy: quantiles are
// within ±1% of the true sample value.
const DefaultSketchAlpha = 0.01

// QuantileSketch is a bounded-memory quantile estimator for
// non-negative observations with relative value error at most alpha.
// The zero value is not ready; use NewQuantileSketch.
//
// Bucket counts live in a dense slice rather than a map: Add is a log,
// an index and an increment, with no hashing, and a caller that can
// group equal samples (the metro sweep, by (load, CQI) pair) pays the
// log once per group through AddN. Real metric streams occupy a
// contiguous-ish index range, so the slice stays small; it grows (with
// slack) only when a sample lands outside the covered range, which
// makes steady-state Add allocation-free.
type QuantileSketch struct {
	gamma    float64 // bucket base: (1+alpha)/(1-alpha)
	logGamma float64
	lo       int     // bucket index of counts[0]
	counts   []int64 // counts[i] holds bucket lo+i, values > 0
	zeros    int64   // exact count of v == 0
	count    int64
}

// NewQuantileSketch returns a sketch with the given relative accuracy
// (0 < alpha < 1); alpha <= 0 selects DefaultSketchAlpha.
func NewQuantileSketch(alpha float64) *QuantileSketch {
	if alpha <= 0 {
		alpha = DefaultSketchAlpha
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &QuantileSketch{
		gamma:    gamma,
		logGamma: math.Log(gamma),
	}
}

// Add absorbs one observation; see AddN for the values it refuses.
func (s *QuantileSketch) Add(v float64) { s.AddN(v, 1) }

// AddN absorbs n observations of the same value, leaving exactly the
// state n calls of Add(v) would; n == 0 is a no-op. Negative, NaN or
// +Inf values and negative counts panic: the callers feed physical
// metrics (rates, delays, factors) where such a sample is a bug worth
// crashing on.
func (s *QuantileSketch) AddN(v float64, n int64) {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 1) || n < 0 {
		panic(fmt.Sprintf("stats: QuantileSketch.AddN(%v, %d): negative, NaN or infinite value, or negative count", v, n))
	}
	if n == 0 {
		return
	}
	s.count += n
	if v == 0 {
		s.zeros += n
		return
	}
	idx := s.bucketOf(v)
	s.cover(idx)
	s.counts[idx-s.lo] += n
}

// cover grows the covered range to include bucket idx, with slack so
// repeated out-of-range samples amortize to O(1).
func (s *QuantileSketch) cover(idx int) {
	const slack = 64
	if len(s.counts) == 0 {
		s.lo = idx - slack
		s.counts = make([]int64, 2*slack+1)
		return
	}
	lo, hi := s.lo, s.lo+len(s.counts)-1 // inclusive covered range
	if idx >= lo && idx <= hi {
		return
	}
	if idx < lo {
		lo = idx - slack
	}
	if idx > hi {
		hi = idx + slack
	}
	grown := make([]int64, hi-lo+1)
	copy(grown[s.lo-lo:], s.counts)
	s.lo, s.counts = lo, grown
}

// bucketOf maps a positive value to its log bucket: the smallest i with
// gamma^i >= v.
func (s *QuantileSketch) bucketOf(v float64) int {
	return int(math.Ceil(math.Log(v) / s.logGamma))
}

// valueOf returns the representative value of bucket i — the geometric
// midpoint, within alpha of every value the bucket admits.
func (s *QuantileSketch) valueOf(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (1 + s.gamma)
}

// Count returns the number of observations absorbed.
func (s *QuantileSketch) Count() int64 { return s.count }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) within
// relative error alpha of the true sample value. Empty sketches return
// 0.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation in ascending order, 0-based.
	rank := int64(q * float64(s.count-1))
	if rank < s.zeros {
		return 0
	}
	seen := s.zeros
	last := s.lo
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		last = s.lo + i
		seen += c
		if seen > rank {
			return s.valueOf(last)
		}
	}
	// Unreachable if counts are consistent; fall back to the top bucket.
	return s.valueOf(last)
}

// Merge folds other into s. Both sketches must share the same alpha
// (same gamma); merging is an exact bucket-wise add, so the result
// answers every query exactly as a single sketch fed both streams.
func (s *QuantileSketch) Merge(other *QuantileSketch) {
	if other == nil || other.count == 0 {
		return
	}
	if s.gamma != other.gamma {
		panic("stats: QuantileSketch.Merge: mismatched alpha")
	}
	s.count += other.count
	s.zeros += other.zeros
	for i, c := range other.counts {
		if c != 0 {
			s.cover(other.lo + i)
			s.counts[other.lo+i-s.lo] += c
		}
	}
}
