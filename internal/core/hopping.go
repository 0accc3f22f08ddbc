package core

import (
	"math/rand"
	"sort"

	"cellfi/internal/trace"
)

// appendSortedKeys appends m's keys to dst (passed empty, so its backing
// array is reused) in ascending order.
func appendSortedKeys[V any](dst []int, m map[int]V) []int {
	if len(m) == 0 { // the common case: nothing observed bad, nothing to pack
		return dst
	}
	for k := range m {
		dst = append(dst, k)
	}
	sort.Ints(dst)
	return dst
}

// Distributed subchannel selection (Section 5.3). Each epoch the
// controller reconciles its held subchannel set against the target
// share, decrements exponential bucket values for subchannels its
// clients report as bad, hops off exhausted subchannels onto the
// highest-utility alternatives, and runs the channel re-use packing
// heuristic toward low-index subchannels.

// DefaultLambda is the mean of the exponential bucket distribution;
// the paper found 10 to work well experimentally.
const DefaultLambda = 10.0

// Controller is the per-AP interference-management state machine.
type Controller struct {
	// S is the number of subchannels in the channel.
	S int
	// Lambda is the bucket mean.
	Lambda float64
	// PackingEnabled turns the channel re-use heuristic on (the
	// default; off for the ablation).
	PackingEnabled bool

	// Trace, when non-nil, receives an im-share record per Epoch and
	// an im-hop record per holding change; TraceAP tags them with the
	// owning cell. The controller has no clock of its own, so the
	// driving layer (internal/netsim) sets TraceNowNS to the epoch
	// timestamp before each update.
	Trace      trace.Recorder
	TraceAP    int32
	TraceNowNS int64

	rng     *rand.Rand
	buckets map[int]float64 // held subchannel -> remaining bucket value
	keys    []int           // Epoch's sorted-key scratch, reused across calls
	// Hops counts subchannel changes (for convergence reporting).
	Hops int
}

// traceHop emits one im-hop record; from/to use -1 for "none".
func (c *Controller) traceHop(from, to, cause int64) {
	if c.Trace == nil {
		return
	}
	c.Trace.Record(trace.Record{T: c.TraceNowNS, AP: c.TraceAP, Kind: trace.KindIMHop,
		N: 3, Args: [trace.MaxArgs]int64{from, to, cause}})
}

// traceShare emits the end-of-epoch im-share record: the target the
// share calculation produced and the holdings the update settled on.
func (c *Controller) traceShare(target int) {
	if c.Trace == nil {
		return
	}
	var mask int64
	for k := range c.buckets {
		if k < 63 {
			mask |= 1 << k
		}
	}
	c.Trace.Record(trace.Record{T: c.TraceNowNS, AP: c.TraceAP, Kind: trace.KindIMShare,
		N: 3, Args: [trace.MaxArgs]int64{int64(target), mask, int64(len(c.buckets))}})
}

// EpochInput carries one epoch's observations into the controller.
// Controller.Epoch and RandomHopper.Epoch only read the maps, and only
// for the duration of the call — neither keeps a reference — so a driver
// may clear and refill one EpochInput's maps for every cell and epoch.
type EpochInput struct {
	// TargetShare is the share-calculation output for this epoch.
	TargetShare int
	// BadFrac maps held subchannels to the scheduled-time fraction
	// of clients that observed them as interfered (the bucket
	// decrement of Section 5.3). Absent key = observed good.
	BadFrac map[int]float64
	// Utility scores candidate subchannels: estimated achievable
	// throughput summed over the clients recently scheduled there
	// (higher is better). Used to pick replacement subchannels. May
	// be nil, in which case replacements are random.
	Utility map[int]float64
	// SensedBusy marks subchannels the AP believes other networks
	// currently occupy; hopping avoids them. (Derived from client
	// CQI reports; imperfect.)
	SensedBusy map[int]bool
	// PackCandidate maps a held subchannel to a lower-index
	// subchannel that all of its recently scheduled users observed
	// as free for a contiguous period (Section 5.3 channel re-use).
	PackCandidate map[int]int
}

// NewController returns a controller for S subchannels using the given
// random stream.
func NewController(s int, rng *rand.Rand) *Controller {
	if s <= 0 {
		panic("core: controller needs at least one subchannel")
	}
	return &Controller{
		S:              s,
		Lambda:         DefaultLambda,
		PackingEnabled: true,
		rng:            rng,
		buckets:        make(map[int]float64),
	}
}

// Held returns the currently held subchannels in ascending order.
func (c *Controller) Held() []int {
	out := make([]int, 0, len(c.buckets))
	for k := range c.buckets {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Holds reports whether subchannel k is held.
func (c *Controller) Holds(k int) bool {
	_, ok := c.buckets[k]
	return ok
}

// drawBucket samples a fresh exponential bucket value.
func (c *Controller) drawBucket() float64 {
	return c.rng.ExpFloat64() * c.Lambda
}

// Epoch runs one 1-second interference-management update and returns
// the held set after the update.
func (c *Controller) Epoch(in EpochInput) []int {
	target := in.TargetShare
	if target > c.S {
		target = c.S
	}
	if target < 0 {
		target = 0
	}

	// 1. Bucket updates: decrement buckets of subchannels observed
	// bad; give up the ones that reach zero and hop to the best
	// available alternative. Keys are visited in ascending order so
	// runs are deterministic for a given seed.
	c.keys = appendSortedKeys(c.keys[:0], in.BadFrac)
	for _, k := range c.keys {
		frac := in.BadFrac[k]
		if _, held := c.buckets[k]; !held || frac <= 0 {
			continue
		}
		c.buckets[k] -= frac
		if c.buckets[k] <= 0 {
			delete(c.buckets, k)
			to := int64(-1)
			if repl, ok := c.pickReplacement(in); ok {
				c.buckets[repl] = c.drawBucket()
				to = int64(repl)
			}
			c.Hops++
			c.traceHop(int64(k), to, trace.HopCauseBucket)
		}
	}

	// 2. Share reconciliation.
	for len(c.buckets) > target {
		// Release the held subchannel with the lowest utility
		// (least valuable to our clients).
		if dropped := c.release(in.Utility); dropped >= 0 {
			c.traceHop(int64(dropped), -1, trace.HopCauseShareShrink)
		}
	}
	for len(c.buckets) < target {
		k, ok := c.pickReplacement(in)
		if !ok {
			break // nothing sensed free; try again next epoch
		}
		c.buckets[k] = c.drawBucket()
		c.traceHop(-1, int64(k), trace.HopCauseShareGrow)
	}

	// 3. Channel re-use packing: migrate toward low-index free
	// subchannels so lightly interfered cells spontaneously overlap
	// there (Section 5.3).
	if c.PackingEnabled {
		c.keys = appendSortedKeys(c.keys[:0], in.PackCandidate)
		for _, from := range c.keys {
			to := in.PackCandidate[from]
			if !c.Holds(from) || c.Holds(to) || to >= from {
				continue
			}
			if in.SensedBusy[to] {
				continue
			}
			delete(c.buckets, from)
			c.buckets[to] = c.drawBucket()
			c.Hops++
			c.traceHop(int64(from), int64(to), trace.HopCausePack)
		}
	}
	c.traceShare(target)
	return c.Held()
}

// release drops the held subchannel with the lowest utility (lowest
// index among ties, keeping runs deterministic) and returns it, -1 if
// nothing was held.
func (c *Controller) release(utility map[int]float64) int {
	worst, worstScore := -1, 0.0
	for _, k := range c.Held() {
		score := utility[k]
		if worst == -1 || score < worstScore {
			worst, worstScore = k, score
		}
	}
	if worst >= 0 {
		delete(c.buckets, worst)
	}
	return worst
}

// pickReplacement chooses an unheld, not-sensed-busy subchannel with
// maximum utility; ties (and the nil-utility case) break uniformly at
// random.
func (c *Controller) pickReplacement(in EpochInput) (int, bool) {
	var best []int
	bestScore := 0.0
	for k := 0; k < c.S; k++ {
		if c.Holds(k) || in.SensedBusy[k] {
			continue
		}
		score := in.Utility[k]
		switch {
		case len(best) == 0 || score > bestScore:
			best = best[:0]
			best = append(best, k)
			bestScore = score
		case score == bestScore:
			best = append(best, k)
		}
	}
	if len(best) == 0 {
		return 0, false
	}
	return best[c.rng.Intn(len(best))], true
}

// Release drops a held subchannel (no hop counted: the caller is a
// coordinated reassignment, not a contention loss). It reports whether
// the subchannel was held.
func (c *Controller) Release(k int) bool {
	if _, ok := c.buckets[k]; !ok {
		return false
	}
	delete(c.buckets, k)
	c.traceHop(int64(k), -1, trace.HopCauseRelease)
	return true
}

// Acquire takes a specific subchannel with a fresh bucket, counting a
// hop. Used by coordinated layers (e.g. an operator deconflicting its
// own cells) that place cells deterministically.
func (c *Controller) Acquire(k int) {
	if k < 0 || k >= c.S {
		panic("core: acquire out of range")
	}
	if _, ok := c.buckets[k]; ok {
		return
	}
	c.buckets[k] = c.drawBucket()
	c.Hops++
	c.traceHop(-1, int64(k), trace.HopCauseAcquire)
}
