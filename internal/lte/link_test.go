package lte

import (
	"math"
	"testing"

	"cellfi/internal/geo"
	"cellfi/internal/propagation"
)

func testCell(id int, x, y float64) *Cell {
	return &Cell{
		ID:         id,
		Pos:        geo.Point{X: x, Y: y},
		TxPowerDBm: 30,
		Antenna:    propagation.Antenna{GainDBi: 6},
		BW:         BW5MHz,
		TDD:        TDDConfig4,
		Activity:   FullBuffer,
	}
}

func quietEnv(seed int64) *Environment {
	e := NewEnvironment(seed)
	e.Model.ShadowSigmaDB = 0
	e.Fading = nil
	return e
}

func TestActivityDutyFactors(t *testing.T) {
	if Off.DutyFactor() != 0 || FullBuffer.DutyFactor() != 1 {
		t.Fatal("off/full duty factors wrong")
	}
	d := SignallingOnly.DutyFactor()
	if d <= 0 || d >= 0.3 {
		t.Fatalf("signalling duty = %g, want small but nonzero", d)
	}
}

func TestPerRBPower(t *testing.T) {
	c := testCell(1, 0, 0)
	// 30 dBm over 25 RBs: about 16 dBm per RB.
	if got := c.PerRBPowerDBm(); math.Abs(got-(30-10*math.Log10(25))) > 1e-9 {
		t.Fatalf("per-RB power = %g", got)
	}
}

func TestTransmitsIn(t *testing.T) {
	c := testCell(1, 0, 0)
	if !c.TransmitsIn(5) || !c.TransmitsIn(3) {
		t.Fatal("a full-buffer cell should transmit in every subchannel")
	}
	c.Activity = SignallingOnly
	if c.TransmitsIn(3) {
		t.Fatal("signalling-only cell should not transmit data")
	}
}

func TestDownlinkSINRNoInterference(t *testing.T) {
	e := quietEnv(1)
	serving := testCell(1, 0, 0)
	cl := &Client{ID: 100, Pos: geo.Point{X: 200, Y: 0}, TxPowerDBm: 20}
	sinr := e.DownlinkSINR(serving, nil, cl, 0, 0)
	// Budget check: per-RB 16 dBm + 6 dBi - PL(200m) vs RB noise.
	pl := e.Model.PathLossDB(200)
	want := serving.PerRBPowerDBm() + 6 - pl - propagation.NoiseDBm(RBBandwidthHz, 7)
	if math.Abs(sinr-want) > 1e-9 {
		t.Fatalf("SINR = %g, want %g", sinr, want)
	}
}

// Figure 7's contrast: signalling-only interference leaves the data
// SINR intact and costs at most ~20% goodput even when the interferer
// is much stronger than the signal, while full data interference
// collapses the SINR itself.
func TestInterferenceActivityContrast(t *testing.T) {
	e := quietEnv(2)
	serving := testCell(1, 0, 0)
	interferer := testCell(2, 600, 0)
	cl := &Client{ID: 100, Pos: geo.Point{X: 400, Y: 0}} // closer to the interferer
	ifs := []*Cell{interferer}

	interferer.Activity = Off
	offSINR := e.DownlinkSINR(serving, ifs, cl, 0, 0)
	offFactor := e.PuncturedGoodputFactor(serving, ifs, cl, 0, 0)

	interferer.Activity = SignallingOnly
	sigSINR := e.DownlinkSINR(serving, ifs, cl, 0, 0)
	sigFactor := e.PuncturedGoodputFactor(serving, ifs, cl, 0, 0)

	interferer.Activity = FullBuffer
	fullSINR := e.DownlinkSINR(serving, ifs, cl, 0, 0)

	if offFactor != 1 {
		t.Errorf("off interferer should not puncture (factor %g)", offFactor)
	}
	if sigSINR != offSINR {
		t.Errorf("signalling interference changed data SINR: %g vs %g", sigSINR, offSINR)
	}
	if sigFactor >= 1 || sigFactor < 0.8 {
		t.Errorf("signalling puncture factor = %g, want within 20%% of 1 (Figure 7b)", sigFactor)
	}
	if fullSINR >= sigSINR-5 {
		t.Errorf("full data interference should collapse SINR (sig=%g full=%g)", sigSINR, fullSINR)
	}
}

// A distant, weak signalling interferer must cost almost nothing: the
// kill probability fades with signal advantage.
func TestPunctureNegligibleForWeakInterferer(t *testing.T) {
	e := quietEnv(21)
	serving := testCell(1, 0, 0)
	interferer := testCell(2, 5000, 0)
	interferer.Activity = SignallingOnly
	cl := &Client{ID: 100, Pos: geo.Point{X: 100, Y: 0}}
	f := e.PuncturedGoodputFactor(serving, []*Cell{interferer}, cl, 0, 0)
	if f < 0.99 {
		t.Fatalf("weak interferer punctured %g of goodput", 1-f)
	}
}

func TestPunctureFactorFloor(t *testing.T) {
	e := quietEnv(22)
	serving := testCell(1, 0, 0)
	cl := &Client{ID: 100, Pos: geo.Point{X: 1200, Y: 0}}
	// Many overwhelming interferers: factor must floor at 0.4, not 0.
	var ifs []*Cell
	for i := 0; i < 8; i++ {
		ic := testCell(10+i, 1250, float64(i*10))
		ic.Activity = SignallingOnly
		ifs = append(ifs, ic)
	}
	f := e.PuncturedGoodputFactor(serving, ifs, cl, 0, 0)
	if f != 0.4 {
		t.Fatalf("puncture floor = %g, want 0.4", f)
	}
}

func TestDownlinkSINRSubchannelMask(t *testing.T) {
	e := quietEnv(3)
	serving := testCell(1, 0, 0)
	interferer := testCell(2, 500, 0)
	cl := &Client{ID: 100, Pos: geo.Point{X: 350, Y: 0}}
	ifs := []*Cell{interferer}
	hit := e.DownlinkSINR(serving, ifs, cl, 7, 0)
	// This is the whole point of CellFi's interference management: a
	// subchannel the neighbour vacates recovers the interference-free
	// data SINR, control overhead aside.
	interferer.Activity = Off
	clear := e.DownlinkSINR(serving, ifs, cl, 7, 0)
	if clear <= hit {
		t.Fatalf("vacated subchannel not cleaner: hit=%g clear=%g", hit, clear)
	}
	pristine := e.DownlinkSINR(serving, nil, cl, 7, 0)
	if clear != pristine {
		t.Fatalf("vacated subchannel data SINR %g != pristine %g", clear, pristine)
	}
}

func TestServingCellExcludedFromInterference(t *testing.T) {
	e := quietEnv(4)
	serving := testCell(1, 0, 0)
	cl := &Client{ID: 100, Pos: geo.Point{X: 300, Y: 0}}
	with := e.DownlinkSINR(serving, []*Cell{serving}, cl, 0, 0)
	without := e.DownlinkSINR(serving, nil, cl, 0, 0)
	if with != without {
		t.Fatal("serving cell counted as its own interferer")
	}
}

func TestUplinkOFDMAAdvantage(t *testing.T) {
	// Figure 1c: concentrating uplink power in one RB instead of the
	// full carrier buys 10*log10(25) ~ 14 dB.
	e := quietEnv(5)
	serving := testCell(1, 0, 0)
	cl := &Client{ID: 100, Pos: geo.Point{X: 1000, Y: 0}, TxPowerDBm: 20}
	one := e.UplinkSINR(cl, serving, 1, 0, 0)
	full := e.UplinkSINR(cl, serving, 25, 0, 0)
	if gap := one - full; math.Abs(gap-10*math.Log10(25)) > 0.2 {
		t.Fatalf("single-RB advantage = %g dB, want ~14", gap)
	}
}

func TestUplinkValidation(t *testing.T) {
	e := quietEnv(6)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-RB uplink should panic")
		}
	}()
	e.UplinkSINR(&Client{}, testCell(1, 0, 0), 0, 0, 0)
}

// TestUplinkSINRClosedForm pins UplinkSINR to its link budget, bit for
// bit: per-RB client power plus the serving antenna's gain, minus the
// static link loss, plus the uplink's own fade, minus the noise floor.
// The loss is read from the downlink's table entry, so the test runs
// both on a fresh environment (the uplink inserts the entry) and after
// a downlink query on the same link and subchannel inserted it.
func TestUplinkSINRClosedForm(t *testing.T) {
	serving := testCell(3, 40, -25)
	serving.Antenna = propagation.Sector(0.5)
	cl := &Client{ID: 17, Pos: geo.Point{X: 520, Y: 310}, TxPowerDBm: 20}
	const nRBs, sc, tMS = 4, 5, 1234
	for _, downlinkFirst := range []bool{false, true} {
		e := NewEnvironment(11)
		if downlinkFirst {
			e.DownlinkSINR(serving, nil, cl, sc, tMS)
		}
		perRB := cl.TxPowerDBm - 10*math.Log10(nRBs)
		gain := serving.Antenna.GainDB(serving.Pos.Bearing(cl.Pos))
		loss := e.Model.LinkLossDB(serving.Pos, cl.Pos)
		fade := e.Fading.GainDB(propagation.LinkID(cl.ID+1<<16, serving.ID), sc, tMS)
		noise := propagation.NoiseDBm(RBBandwidthHz, e.NoiseFigureDB)
		want := perRB + gain - loss + fade - noise
		if got := e.UplinkSINR(cl, serving, nRBs, sc, tMS); got != want {
			t.Errorf("downlink first %v: UplinkSINR = %v, want %v", downlinkFirst, got, want)
		}
	}
}

func TestDownlinkRSSIConsistent(t *testing.T) {
	e := quietEnv(7)
	c := testCell(1, 0, 0)
	cl := &Client{ID: 100, Pos: geo.Point{X: 250, Y: 0}}
	rssi := e.DownlinkRSSI(c, cl, 0)
	perRB := e.rxPowerDBm(c, cl.Pos, cl.ID, 0, 0)
	if math.Abs(rssi-(perRB+10*math.Log10(25))) > 1e-9 {
		t.Fatalf("RSSI = %g inconsistent with per-RB %g", rssi, perRB)
	}
}

// Range calibration at link level: a 36 dBm EIRP cell holds a decodable
// downlink at 1.3 km and loses it beyond (Section 3.1), in the median
// channel.
func TestLinkRangeCalibration(t *testing.T) {
	e := quietEnv(8)
	c := testCell(1, 0, 0)
	// The median link budget over the full carrier: no shadowing, no fading.
	median := func(d float64) float64 {
		noise := propagation.NoiseDBm(c.BW.Hz(), e.NoiseFigureDB)
		return c.TxPowerDBm + c.Antenna.GainDBi - e.Model.PathLossDB(d) - noise
	}
	if snr := median(1300); snr < -3 {
		t.Errorf("median SNR at 1.3 km = %g dB; link should be alive", snr)
	}
	if snr := median(2500); snr > -3 {
		t.Errorf("median SNR at 2.5 km = %g dB; link should be dead", snr)
	}
}

func TestFadingVariesSINROverTime(t *testing.T) {
	e := NewEnvironment(9)
	e.Model.ShadowSigmaDB = 0
	c := testCell(1, 0, 0)
	cl := &Client{ID: 100, Pos: geo.Point{X: 600, Y: 0}}
	a := e.DownlinkSINR(c, nil, cl, 0, 0)
	b := e.DownlinkSINR(c, nil, cl, 0, 500) // different coherence block
	if a == b {
		t.Fatal("fading produced identical SINR across blocks")
	}
	if e.DownlinkSINR(c, nil, cl, 0, 50) != a {
		t.Fatal("SINR changed within a coherence block")
	}
}

func BenchmarkDownlinkSINR(b *testing.B) {
	e := NewEnvironment(1)
	serving := testCell(1, 0, 0)
	ifs := []*Cell{testCell(2, 700, 100), testCell(3, -500, 300), testCell(4, 200, -900)}
	cl := &Client{ID: 100, Pos: geo.Point{X: 400, Y: 100}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.DownlinkSINR(serving, ifs, cl, i%13, int64(i))
	}
}
