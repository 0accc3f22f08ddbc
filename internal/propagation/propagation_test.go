package propagation

import (
	"math"
	"testing"

	"cellfi/internal/geo"
)

func TestDBmConversionRoundTrip(t *testing.T) {
	for _, dbm := range []float64{-120, -100, -60, 0, 23, 36} {
		if got := MWToDBm(DBmToMW(dbm)); math.Abs(got-dbm) > 1e-9 {
			t.Errorf("round-trip %g dBm -> %g", dbm, got)
		}
	}
	if !math.IsInf(MWToDBm(0), -1) {
		t.Error("MWToDBm(0) should be -Inf")
	}
}

func TestNoiseFloor(t *testing.T) {
	// 5 MHz with 7 dB NF: -174 + 67 + 7 = -100 dBm (approximately).
	got := NoiseDBm(5e6, 7)
	if math.Abs(got-(-100)) > 0.05 {
		t.Errorf("5 MHz noise floor = %g dBm, want about -100", got)
	}
	// Single 180 kHz resource block: -174 + 52.55 + 7 = -114.4 dBm.
	got = NoiseDBm(180e3, 7)
	if math.Abs(got-(-114.4)) > 0.1 {
		t.Errorf("180 kHz noise floor = %g dBm, want about -114.4", got)
	}
}

func TestPathLossMonotone(t *testing.T) {
	m := DefaultUrban(1)
	prev := -1.0
	for d := 1.0; d < 3000; d *= 1.3 {
		pl := m.PathLossDB(d)
		if pl < prev {
			t.Fatalf("path loss decreased at %g m", d)
		}
		prev = pl
	}
}

func TestPathLossReferenceClamp(t *testing.T) {
	m := DefaultUrban(1)
	if m.PathLossDB(1) != m.RefLossDB || m.PathLossDB(10) != m.RefLossDB {
		t.Error("path loss below reference distance should clamp to RefLossDB")
	}
}

// The headline calibration: the paper measures 1.3 km reach at 36 dBm
// EIRP. At 1.3 km the downlink SNR over 5 MHz must sit above the minimum
// LTE decode threshold (about -6 dB) but not lavishly so, and at 2 km the
// link should be dead.
func TestCalibration13kmReach(t *testing.T) {
	m := DefaultUrban(1)
	const eirp = 36.0 // 30 dBm small cell + 6 dBi sector (Section 3.1)
	noise := NoiseDBm(5e6, 7)
	snrAt := func(d float64) float64 { return eirp - m.PathLossDB(d) - noise }

	if snr := snrAt(1300); snr < -3 || snr > 15 {
		t.Errorf("SNR at 1.3 km = %.1f dB; want a marginal-but-alive link", snr)
	}
	if snr := snrAt(2500); snr > -3 {
		t.Errorf("SNR at 2.5 km = %.1f dB; link should be dead", snr)
	}
	if snr := snrAt(100); snr < 25 {
		t.Errorf("SNR at 100 m = %.1f dB; near links should be strong", snr)
	}
}

// Uplink calibration: 20 dBm client on a single 180 kHz resource block
// (the OFDMA trick of Figure 1c) must also close at about 1.3 km.
func TestCalibrationUplinkSingleRB(t *testing.T) {
	m := DefaultUrban(1)
	noise := NoiseDBm(180e3, 7)
	snr := 20 + 6 - m.PathLossDB(1300) - noise // client 20 dBm + AP rx sector gain
	if snr < -3 {
		t.Errorf("uplink single-RB SNR at 1.3 km = %.1f dB; should close", snr)
	}
	// Full-bandwidth uplink (what Wi-Fi would have to do) should be
	// several dB worse — this is the OFDMA advantage the paper cites.
	full := 20 + 6 - m.PathLossDB(1300) - NoiseDBm(5e6, 7)
	if full >= snr-10 {
		t.Errorf("full-band SNR %.1f vs single-RB %.1f: expected >= 10 dB gap", full, snr)
	}
}

func TestShadowingSymmetricDeterministic(t *testing.T) {
	m := DefaultUrban(99)
	a, b := geo.Point{X: 10, Y: 20}, geo.Point{X: 500, Y: 700}
	s1 := m.ShadowingDB(a, b)
	s2 := m.ShadowingDB(b, a)
	if s1 != s2 {
		t.Errorf("shadowing asymmetric: %g vs %g", s1, s2)
	}
	if s1 != m.ShadowingDB(a, b) {
		t.Error("shadowing not deterministic")
	}
	m2 := DefaultUrban(100)
	if m2.ShadowingDB(a, b) == s1 {
		t.Error("different seeds gave identical shadowing")
	}
}

func TestShadowingStatistics(t *testing.T) {
	m := DefaultUrban(7)
	var sum, sum2 float64
	const n = 4000
	for i := 0; i < n; i++ {
		a := geo.Point{X: float64(i), Y: 0}
		b := geo.Point{X: float64(i), Y: 1000}
		s := m.ShadowingDB(a, b)
		sum += s
		sum2 += s * s
	}
	mean := sum / n
	std := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean) > 0.35 {
		t.Errorf("shadowing mean = %g dB, want about 0", mean)
	}
	if math.Abs(std-m.ShadowSigmaDB) > 0.4 {
		t.Errorf("shadowing std = %g dB, want about %g", std, m.ShadowSigmaDB)
	}
}

func TestShadowingZeroSigma(t *testing.T) {
	m := DefaultUrban(1)
	m.ShadowSigmaDB = 0
	if m.ShadowingDB(geo.Point{}, geo.Point{X: 1}) != 0 {
		t.Error("zero sigma should produce zero shadowing")
	}
}

func TestAntennaOmni(t *testing.T) {
	a := Antenna{GainDBi: 3}
	for _, b := range []float64{0, 1, math.Pi, -2} {
		if a.GainDB(b) != 3 {
			t.Errorf("omni gain at bearing %g = %g, want 3", b, a.GainDB(b))
		}
	}
}

func TestSectorAntennaPattern(t *testing.T) {
	a := Sector(0)
	if g := a.GainDB(0); g != 6 {
		t.Errorf("boresight gain = %g, want 6", g)
	}
	if g := a.GainDB(math.Pi / 4); g != 6 { // 45 deg, inside 60 deg half-width
		t.Errorf("in-sector gain = %g, want 6", g)
	}
	back := a.GainDB(math.Pi)
	if back > 6-15+1e-9 {
		t.Errorf("back-lobe gain = %g, want %g", back, 6-15.0)
	}
	// Roll-off region: between edge and back.
	mid := a.GainDB(math.Pi / 2)
	if mid >= 6 || mid <= back {
		t.Errorf("roll-off gain %g not between boresight 6 and back %g", mid, back)
	}
}

func TestSectorAntennaWrapAround(t *testing.T) {
	a := Sector(math.Pi - 0.1)
	// A bearing just across the -pi/pi wrap should still be in-sector.
	if g := a.GainDB(-math.Pi + 0.1); g != 6 {
		t.Errorf("wrap-around bearing gain = %g, want 6", g)
	}
}

func TestFadingStatistics(t *testing.T) {
	f := NewFading(3)
	var sumLin float64
	const n = 20000
	deepFades := 0
	for i := 0; i < n; i++ {
		db := f.GainDB(uint64(i), i%13, int64(i)*100)
		lin := math.Pow(10, db/10)
		sumLin += lin
		if db < -10 {
			deepFades++
		}
	}
	mean := sumLin / n
	if mean < 0.9 || mean > 1.1 {
		t.Errorf("mean linear fading gain = %g, want about 1", mean)
	}
	// P(exp(1) < 0.1) is about 9.5%: Rayleigh deep fades must occur.
	frac := float64(deepFades) / n
	if frac < 0.06 || frac > 0.14 {
		t.Errorf("deep-fade fraction = %g, want about 0.095", frac)
	}
}

func TestFadingBlockStructure(t *testing.T) {
	f := NewFading(5)
	// Same block -> same fade; different block -> (almost surely) different.
	a := f.GainDB(1, 3, 0)
	b := f.GainDB(1, 3, 99) // same 100 ms block
	c := f.GainDB(1, 3, 100)
	if a != b {
		t.Error("fade changed within a coherence block")
	}
	if a == c {
		t.Error("fade identical across coherence blocks")
	}
	if f.GainDB(1, 4, 0) == a {
		t.Error("fade identical across subchannels")
	}
	if f.GainDB(2, 3, 0) == a {
		t.Error("fade identical across links")
	}
}

// Fading is off when the *Fading is nil: every gain is 0 dB.
func TestFadingDisabled(t *testing.T) {
	var nilF *Fading
	if nilF.GainDB(1, 1, 1) != 0 || nilF.GainLinear(1, 1, 1) != 1 {
		t.Error("nil fading should be 0 dB")
	}
	if got := nilF.Row(1, 1).Gain(7); got != 1 {
		t.Errorf("nil fading row gain = %g, want 1", got)
	}
}

func TestLinkID(t *testing.T) {
	if LinkID(1, 2) == LinkID(2, 1) {
		t.Error("LinkID should be directed")
	}
	if LinkID(1, 2) != LinkID(1, 2) {
		t.Error("LinkID not deterministic")
	}
}

func BenchmarkLinkLoss(b *testing.B) {
	m := DefaultUrban(1)
	p, q := geo.Point{X: 0, Y: 0}, geo.Point{X: 800, Y: 300}
	for i := 0; i < b.N; i++ {
		_ = m.LinkLossDB(p, q)
	}
}

func BenchmarkFadingGain(b *testing.B) {
	f := NewFading(1)
	for i := 0; i < b.N; i++ {
		_ = f.GainDB(uint64(i), i%13, int64(i))
	}
}

// hataUrbanModel returns a Model whose parameters follow the
// Okumura-Hata urban formula (valid 150-1500 MHz — it covers the TV
// band, unlike COST-231 which starts at 1500 MHz):
//
//	L = 69.55 + 26.16 log10(f) - 13.82 log10(hb) - a(hm)
//	    + (44.9 - 6.55 log10(hb)) log10(d_km)
//
// with the small/medium-city mobile-antenna correction a(hm). Hata is
// log-distance in d, so it maps exactly onto Model. It is the
// independent referee for DefaultUrban's drive-test calibration.
func hataUrbanModel(freqMHz, baseHeightM, mobileHeightM float64) *Model {
	logF := math.Log10(freqMHz)
	logHb := math.Log10(baseHeightM)
	aHm := (1.1*logF-0.7)*mobileHeightM - (1.56*logF - 0.8)
	slope := 44.9 - 6.55*logHb // dB per decade of distance
	at1km := 69.55 + 26.16*logF - 13.82*logHb - aHm
	refDist := 10.0
	// L(10 m) = L(1 km) + slope*log10(0.01).
	refLoss := at1km + slope*math.Log10(refDist/1000)
	return &Model{Exponent: slope / 10, RefLossDB: refLoss, RefDist: refDist}
}

// Okumura-Hata spot checks at 600 MHz, 15 m base, 1.5 m mobile.
func TestHataUrbanKnownValues(t *testing.T) {
	m := hataUrbanModel(600, 15, 1.5)
	// Hand-computed: slope 37.2 dB/decade, 126.0 dB at 1 km.
	if math.Abs(m.Exponent*10-37.2) > 0.1 {
		t.Fatalf("Hata slope = %.1f dB/decade, want 37.2", m.Exponent*10)
	}
	if got := m.PathLossDB(1000); math.Abs(got-126.0) > 0.5 {
		t.Fatalf("Hata loss at 1 km = %.1f dB, want ~126", got)
	}
	// Higher masts lose less.
	high := hataUrbanModel(600, 30, 1.5)
	if high.PathLossDB(1000) >= m.PathLossDB(1000) {
		t.Fatal("taller base station should reduce path loss")
	}
}

// The independent check behind the drive-test calibration: Hata at the
// paper's deployment parameters agrees with DefaultUrban within 3 dB
// from 100 m to 2 km.
func TestHataValidatesDefaultUrban(t *testing.T) {
	hata := hataUrbanModel(600, 15, 1.5)
	def := DefaultUrban(1)
	for d := 100.0; d <= 2000; d *= 1.3 {
		gap := math.Abs(hata.PathLossDB(d) - def.PathLossDB(d))
		if gap > 3 {
			t.Fatalf("Hata and DefaultUrban diverge %.1f dB at %.0f m", gap, d)
		}
	}
}
