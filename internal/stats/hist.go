package stats

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a concurrent, fixed-footprint, log-linear histogram for
// latency-style measurements (HdrHistogram bucketing: 32 linear
// sub-buckets per power of two, ~3% relative error). Values are
// non-negative int64s — by convention nanoseconds. The zero value is
// ready to use; Record and the read side are lock-free, so request
// hot paths can share one Histogram across goroutines without
// coordination. Unlike CDF (which sorts retained samples) a Histogram
// holds O(1) memory regardless of how many observations it absorbs,
// which is what an open-loop load harness pushing millions of requests
// needs.
type Histogram struct {
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// histBuckets: indices 0..31 hold exact values 0..31; each further
// 32-bucket block b covers [32<<(b-1), 64<<(b-1)) with linear
// sub-buckets. 60 blocks cover the full int64 range.
const histBuckets = 32 + 60*32

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 32 {
		return int(u)
	}
	msb := bits.Len64(u) - 1 // >= 5
	sub := (u >> (msb - 5)) & 31
	return (msb-4)*32 + int(sub)
}

// histUpper returns the largest value mapping to bucket idx — the
// conservative (over-)estimate quantiles report.
func histUpper(idx int) int64 {
	if idx < 32 {
		return int64(idx)
	}
	block := idx/32 - 1 // >= 0
	sub := int64(idx % 32)
	lower := (32 + sub) << block
	return lower + (int64(1) << block) - 1
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	h.sum.Add(v)
	h.buckets[histIndex(v)].Add(1)
}

// Observe records a duration in nanoseconds.
func (h *Histogram) Observe(d time.Duration) { h.Record(int64(d)) }

// HistSnapshot is an immutable copy of a Histogram's state.
type HistSnapshot struct {
	N       int64
	Sum     int64
	buckets [histBuckets]int64
}

// Snapshot copies the current counts. Under concurrent writers the
// copy is not a single atomic cut, but every bucket value is itself
// consistent, which is all quantile estimation needs; N is the count
// the bucket sweep saw, so ranks stay within the copied buckets.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.buckets[i] = c
		s.N += c
	}
	return s
}

// Quantile returns an upper bound for the q-quantile of the snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.N-1)) + 1 // 1-based rank of the target sample
	seen := int64(0)
	for i := range s.buckets {
		seen += s.buckets[i]
		if seen >= rank {
			return histUpper(i)
		}
	}
	return histUpper(histBuckets - 1)
}

// Mean returns the arithmetic mean of the snapshot (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.N)
}
