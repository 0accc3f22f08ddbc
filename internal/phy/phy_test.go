package phy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestModulationBits(t *testing.T) {
	cases := []struct {
		m    Modulation
		bits int
		name string
	}{
		{BPSK, 1, "BPSK"}, {QPSK, 2, "QPSK"}, {QAM16, 4, "16QAM"},
		{QAM64, 6, "64QAM"}, {QAM256, 8, "256QAM"},
	}
	for _, c := range cases {
		if c.m.Bits() != c.bits {
			t.Errorf("%v.Bits() = %d, want %d", c.m, c.m.Bits(), c.bits)
		}
		if c.m.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", c.m, c.m.String(), c.name)
		}
	}
}

func TestLTECQITableConsistency(t *testing.T) {
	prevEff, prevThr := 0.0, math.Inf(-1)
	for i := 1; i <= 15; i++ {
		m := LTECQI(i)
		if m.Index != i {
			t.Errorf("CQI %d has index %d", i, m.Index)
		}
		if m.Efficiency <= prevEff {
			t.Errorf("CQI %d efficiency %g not increasing", i, m.Efficiency)
		}
		if m.MinSINRdB <= prevThr {
			t.Errorf("CQI %d threshold %g not increasing", i, m.MinSINRdB)
		}
		// Tabulated efficiency must equal bits*rate (standard's own rule).
		want := float64(m.Modulation.Bits()) * m.CodeRate
		if math.Abs(m.Efficiency-want) > 0.01 {
			t.Errorf("CQI %d efficiency %g != bits*rate %g", i, m.Efficiency, want)
		}
		prevEff, prevThr = m.Efficiency, m.MinSINRdB
	}
}

// Section 3.1: LTE offers coding rates down to about 0.1; 802.11af's
// minimum is 0.5. Table 1 of the paper hinges on this gap.
func TestCodingRateFloors(t *testing.T) {
	if r := LTECQI(1).CodeRate; r > 0.12 {
		t.Errorf("LTE minimum code rate = %g, want <= 0.1 ballpark", r)
	}
	minWiFi := 1.0
	for i := 0; i < WiFiMCSCount(); i++ {
		if r := WiFiMCS(i).CodeRate; r < minWiFi {
			minWiFi = r
		}
	}
	if minWiFi != 0.5 {
		t.Errorf("Wi-Fi minimum code rate = %g, want 0.5", minWiFi)
	}
}

func TestLTECQIFromSINR(t *testing.T) {
	cases := []struct {
		sinr float64
		want int
	}{
		{-10, 0}, {-6.7, 1}, {-5, 1}, {0.2, 4}, {10.4, 9},
		{22.7, 15}, {30, 15},
	}
	for _, c := range cases {
		if got := LTECQIFromSINR(c.sinr); got != c.want {
			t.Errorf("LTECQIFromSINR(%g) = %d, want %d", c.sinr, got, c.want)
		}
	}
}

func TestLTECQIFromSINRMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		x := math.Mod(math.Abs(a), 60) - 30
		y := math.Mod(math.Abs(b), 60) - 30
		if x > y {
			x, y = y, x
		}
		return LTECQIFromSINR(x) <= LTECQIFromSINR(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLTECQIPanicsOutOfRange(t *testing.T) {
	for _, i := range []int{0, 16, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LTECQI(%d) did not panic", i)
				}
			}()
			LTECQI(i)
		}()
	}
}

func TestWiFiMCSFromSINR(t *testing.T) {
	if _, ok := WiFiMCSFromSINR(1.0); ok {
		t.Error("SINR below floor should not decode")
	}
	m, ok := WiFiMCSFromSINR(2.0)
	if !ok || m.Index != 0 {
		t.Errorf("at 2 dB got MCS %v ok=%v, want MCS 0", m.Index, ok)
	}
	m, _ = WiFiMCSFromSINR(50)
	if m.Index != 9 {
		t.Errorf("at 50 dB got MCS %d, want 9", m.Index)
	}
	m, _ = WiFiMCSFromSINR(16)
	if m.Index != 4 {
		t.Errorf("at 16 dB got MCS %d, want 4", m.Index)
	}
}

// LTE decodes ~9 dB deeper than Wi-Fi: this is the PHY half of the
// paper's range argument.
func TestLTEDecodesDeeperThanWiFi(t *testing.T) {
	gap := WiFiMinSINRdB - LTEMinSINRdB
	if gap < 8 {
		t.Errorf("LTE decode-floor advantage = %g dB, want about 8.7", gap)
	}
	// In the gap region LTE works and Wi-Fi does not.
	for _, sinr := range []float64{-6, -3, 0, 1.5} {
		if LTECQIFromSINR(sinr) == 0 {
			t.Errorf("LTE should decode at %g dB", sinr)
		}
		if _, ok := WiFiMCSFromSINR(sinr); ok {
			t.Errorf("Wi-Fi should not decode at %g dB", sinr)
		}
	}
}

func TestBLERWaterfall(t *testing.T) {
	m := LTECQI(7)
	at := BLER(m.MinSINRdB, m)
	if math.Abs(at-0.1) > 1e-9 {
		t.Errorf("BLER at threshold = %g, want 0.1", at)
	}
	below := BLER(m.MinSINRdB-3, m)
	above := BLER(m.MinSINRdB+3, m)
	if below <= at || above >= at {
		t.Errorf("BLER not monotone: below=%g at=%g above=%g", below, at, above)
	}
	if BLER(m.MinSINRdB-20, m) != 1 {
		t.Error("BLER should saturate at 1 deep below threshold")
	}
	if BLER(m.MinSINRdB+40, m) < 1e-7 {
		t.Error("BLER floor should hold")
	}
}

func TestBLERMonotoneInSINR(t *testing.T) {
	f := func(a, b float64) bool {
		x := math.Mod(math.Abs(a), 60) - 30
		y := math.Mod(math.Abs(b), 60) - 30
		if x > y {
			x, y = y, x
		}
		m := LTECQI(9)
		return BLER(x, m) >= BLER(y, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveSINR(t *testing.T) {
	// Uniform SINRs: effective equals the common value.
	for _, s := range []float64{-5, 0, 10, 20} {
		got := EffectiveSINRdB([]float64{s, s, s})
		if math.Abs(got-s) > 0.2 {
			t.Errorf("EESM of uniform %g dB = %g", s, got)
		}
	}
	// Mixed SINRs: effective is dominated by the weak subchannels,
	// hence below the arithmetic dB mean.
	got := EffectiveSINRdB([]float64{0, 20})
	if got >= 10 || got <= 0 {
		t.Errorf("EESM(0,20) = %g, want in (0,10) leaning low", got)
	}
	if !math.IsInf(EffectiveSINRdB(nil), -1) {
		t.Error("empty EESM should be -Inf")
	}
}

func BenchmarkLTECQIFromSINR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = LTECQIFromSINR(float64(i%40) - 10)
	}
}

func BenchmarkBLER(b *testing.B) {
	m := LTECQI(9)
	for i := 0; i < b.N; i++ {
		_ = BLER(float64(i%30)-5, m)
	}
}
