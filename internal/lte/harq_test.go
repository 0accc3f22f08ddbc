package lte

import (
	"math"
	"math/rand"
	"testing"
)

func TestHARQFirstAttemptSuccess(t *testing.T) {
	// Far above threshold: deterministic rule decodes immediately.
	p := &HARQProcess{CQI: 7}
	ok := p.Transmit(30, nil)
	if !ok || !p.delivered || p.attempts != 1 {
		t.Fatalf("strong signal: ok=%v delivered=%v attempts=%d", ok, p.delivered, p.attempts)
	}
}

func TestHARQCombiningGain(t *testing.T) {
	// Just below threshold: the first attempt fails (BLER >= 0.5 under
	// the deterministic rule), but chase combining adds 3 dB per copy
	// and the block eventually decodes.
	m := &HARQProcess{CQI: 7}
	sinr := 2.0 // CQI 7 threshold is 5.9 dB
	for !m.Done() {
		m.Transmit(sinr, nil)
	}
	if !m.delivered {
		t.Fatalf("combining failed to deliver: eff SINR %g after %d attempts",
			m.EffectiveSINRdB(), m.attempts)
	}
	if m.attempts < 2 {
		t.Fatalf("expected retransmissions, got %d attempts", m.attempts)
	}
	// Two equal-power copies are +3 dB.
	p := &HARQProcess{CQI: 7}
	p.Transmit(0, nil)
	p.Transmit(0, nil)
	if got := p.EffectiveSINRdB(); math.Abs(got-3.0103) > 0.01 {
		t.Errorf("two combined 0 dB copies = %g dB, want 3.01", got)
	}
}

func TestHARQDropsAfterMaxAttempts(t *testing.T) {
	p := &HARQProcess{CQI: 15} // needs 22.7 dB
	for i := 0; i < 10; i++ {
		p.Transmit(-20, nil)
	}
	if !p.Done() || p.delivered {
		t.Fatalf("hopeless block: done=%v delivered=%v", p.Done(), p.delivered)
	}
	if p.attempts != MaxHARQTransmissions {
		t.Fatalf("attempts = %d, want %d", p.attempts, MaxHARQTransmissions)
	}
	// Further transmits are no-ops.
	if p.Transmit(30, nil) {
		t.Fatal("terminated process accepted another transmission")
	}
}

func TestHARQEffectiveSINREmpty(t *testing.T) {
	p := &HARQProcess{CQI: 5}
	if !math.IsInf(p.EffectiveSINRdB(), -1) {
		t.Fatal("no transmissions should mean -Inf effective SINR")
	}
}

// harqStats transmits n blocks at the given CQI, drawing each attempt's
// SINR from sinrFn, and returns the fraction delivered and the fraction
// that needed at least one retransmission (the Figure 1 "25% of packets
// beyond 500 m" metric).
func harqStats(n, cqi int, rng *rand.Rand, sinrFn func() float64) (delivery, harqFrac float64) {
	delivered, retx := 0, 0
	for i := 0; i < n; i++ {
		p := &HARQProcess{CQI: cqi}
		for !p.Done() {
			p.Transmit(sinrFn(), rng)
		}
		if p.delivered {
			delivered++
		}
		if p.attempts > 1 {
			retx++
		}
	}
	return float64(delivered) / float64(n), float64(retx) / float64(n)
}

func TestRunHARQStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Comfortably above threshold: nearly everything delivers on the
	// first try.
	delivery, harqFrac := harqStats(2000, 7, rng, func() float64 { return 12 })
	if delivery < 0.99 {
		t.Errorf("strong-link delivery = %g", delivery)
	}
	if harqFrac > 0.05 {
		t.Errorf("strong-link HARQ fraction = %g", harqFrac)
	}

	// At threshold: ~10% of first attempts fail, so the HARQ fraction
	// sits near 0.1 — the long-link regime of Figure 1.
	delivery, harqFrac = harqStats(4000, 7, rng, func() float64 { return 5.9 })
	if harqFrac < 0.05 || harqFrac > 0.2 {
		t.Errorf("at-threshold HARQ fraction = %g, want about 0.1", harqFrac)
	}
	if delivery < 0.999 {
		t.Errorf("at-threshold delivery = %g; combining should save nearly all", delivery)
	}

	// Deep fade regime: delivery collapses.
	delivery, _ = harqStats(500, 15, rng, func() float64 { return -5 })
	if delivery > 0.05 {
		t.Errorf("hopeless-link delivery = %g", delivery)
	}
}

func TestRunHARQVaryingChannel(t *testing.T) {
	// Fading channel around the threshold: HARQ fraction must exceed
	// the static case because bad draws force retransmissions, and
	// delivery stays high because good draws rescue them.
	rng := rand.New(rand.NewSource(2))
	fade := rand.New(rand.NewSource(3))
	delivery, harqFrac := harqStats(3000, 7, rng, func() float64 { return 5.9 + fade.NormFloat64()*6 })
	if delivery < 0.9 {
		t.Errorf("fading delivery = %g", delivery)
	}
	if harqFrac < 0.1 {
		t.Errorf("fading HARQ fraction = %g, want noticeable retransmissions", harqFrac)
	}
}
