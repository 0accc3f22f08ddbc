package lte

import (
	"math"
	"math/rand"

	"cellfi/internal/phy"
)

// HARQ: hybrid automatic repeat request with chase combining. A failed
// transport block is retransmitted and the receiver combines the soft
// energy of all attempts, so each retransmission adds the full SINR of
// its copy in the linear domain. This is the mechanism behind the
// paper's observation that 25% of packets beyond 500 m used HARQ
// (Section 3.1) and part of why LTE holds links Wi-Fi cannot.

// MaxHARQTransmissions is the maximum number of attempts (1 initial + 3
// retransmissions), the common LTE configuration.
const MaxHARQTransmissions = 4

// HARQProcess tracks one transport block across attempts.
type HARQProcess struct {
	// CQI is the transport format the block was built for.
	CQI int
	// attempts made so far.
	attempts int
	// accSINRLinear is the chase-combined SINR.
	accSINRLinear float64
	// done marks delivered or abandoned blocks.
	done, delivered bool
}

// Done reports whether the process has terminated (success or drop).
func (h *HARQProcess) Done() bool { return h.done }

// EffectiveSINRdB returns the chase-combined SINR after the attempts so
// far.
func (h *HARQProcess) EffectiveSINRdB() float64 {
	if h.accSINRLinear <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(h.accSINRLinear)
}

// Transmit performs one attempt at the given instantaneous SINR and
// returns whether the block decoded. The rng drives the block-error
// coin flip; pass nil for a deterministic "decode iff BLER < 0.5" rule.
func (h *HARQProcess) Transmit(sinrDB float64, rng *rand.Rand) bool {
	if h.done {
		return h.delivered
	}
	h.attempts++
	h.accSINRLinear += math.Pow(10, sinrDB/10)
	bler := phy.BLER(h.EffectiveSINRdB(), phy.LTECQI(h.CQI))
	var ok bool
	if rng == nil {
		ok = bler < 0.5
	} else {
		ok = rng.Float64() >= bler
	}
	if ok {
		h.done = true
		h.delivered = true
	} else if h.attempts >= MaxHARQTransmissions {
		h.done = true
	}
	return ok
}
