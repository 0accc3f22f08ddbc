package core

import (
	"math/rand"
	"sort"
)

// IM is the interface the network simulator drives: any per-AP
// intra-channel interference-management policy — CellFi's bucket
// controller, the memoryless random hopper below, or future variants.
type IM interface {
	// Epoch applies one 1-second update and returns the held set.
	Epoch(in EpochInput) []int
	// Held returns the current subchannel set in ascending order.
	Held() []int
	// HopCount reports cumulative subchannel changes.
	HopCount() int
}

// HopCount implements IM for the CellFi controller.
func (c *Controller) HopCount() int { return c.Hops }

var _ IM = (*Controller)(nil)

// RandomHopper is the memoryless baseline CellFi's bucket mechanism is
// an improvement over: any subchannel reported bad is dropped
// immediately and replaced with a uniform random pick. Without the
// exponential buckets there is no hysteresis — transient interference
// (or a detector false positive) instantly evicts the AP, and two
// contending APs can chase each other indefinitely. The "lambda"
// ablation quantifies the difference.
type RandomHopper struct {
	// S is the number of subchannels.
	S int

	rng  *rand.Rand
	held map[int]bool
	hops int
}

// NewRandomHopper returns a hopper over s subchannels.
func NewRandomHopper(s int, rng *rand.Rand) *RandomHopper {
	if s <= 0 {
		panic("core: hopper needs at least one subchannel")
	}
	return &RandomHopper{S: s, rng: rng, held: make(map[int]bool)}
}

// Held implements IM.
func (r *RandomHopper) Held() []int {
	out := make([]int, 0, len(r.held))
	for k := range r.held {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// HopCount implements IM.
func (r *RandomHopper) HopCount() int { return r.hops }

// Epoch implements IM: drop every bad subchannel, then reconcile to
// the target with uniform random picks among not-sensed-busy
// subchannels.
func (r *RandomHopper) Epoch(in EpochInput) []int {
	target := in.TargetShare
	if target > r.S {
		target = r.S
	}
	if target < 0 {
		target = 0
	}
	// Dropping is order-independent (no random draw), so the map is
	// ranged directly.
	for k, frac := range in.BadFrac {
		if frac > 0 && r.held[k] {
			delete(r.held, k)
			r.hops++
		}
	}
	// Shrink (arbitrary-but-deterministic: highest index first).
	for len(r.held) > target {
		held := r.Held()
		delete(r.held, held[len(held)-1])
	}
	// Grow with uniform random picks.
	for len(r.held) < target {
		var free []int
		for k := 0; k < r.S; k++ {
			if !r.held[k] && !in.SensedBusy[k] {
				free = append(free, k)
			}
		}
		if len(free) == 0 {
			break
		}
		r.held[free[r.rng.Intn(len(free))]] = true
	}
	return r.Held()
}

var _ IM = (*RandomHopper)(nil)
