package metro

import (
	"math"
	"testing"
	"time"

	"cellfi/internal/geo"
)

// smallCity is a brute-force-tractable world that still has coverage
// holes, handovers and row overflow.
func smallCity(seed int64) Config {
	return Config{
		Seed:         seed,
		NAPs:         60,
		NUEs:         1500,
		AreaW:        2400,
		AreaH:        1600,
		APSpacingM:   150,
		RadiusM:      500,
		MaxNeighbors: 16,
		APPowerDBm:   30,
		DayEpochs:    30,
		MinLoadFrac:  0.2,
		MaxLoadFrac:  0.9,
		MoveFraction: 0.1,
		SpeedMps:     20,
	}
}

// bruteRow is the reference for rebuildRow: scan every AP in ascending
// index order, keep those within RadiusM under the inclusive r^2
// predicate up to the row bound, and serve from the strongest mean rx
// (strict >, so ties keep the lowest index).
func bruteRow(w *World, u int) (aps []int32, rxMW []float32, cell int32, servI uint8, dropped int) {
	r2 := w.Cfg.RadiusM * w.Cfg.RadiusM
	pos := geo.Point{X: w.ueX[u], Y: w.ueY[u]}
	cell = -1
	var bestRx float32
	for a := range w.apX {
		dx, dy := w.apX[a]-pos.X, w.apY[a]-pos.Y
		if dx*dx+dy*dy > r2 {
			continue
		}
		if len(aps) >= w.Cfg.MaxNeighbors {
			dropped++
			continue
		}
		loss := w.model.LinkLossDB(geo.Point{X: w.apX[a], Y: w.apY[a]}, pos)
		rx := float32(math.Exp((w.Cfg.APPowerDBm - loss) * (math.Ln10 / 10)))
		if rx > bestRx {
			cell, bestRx, servI = int32(a), rx, uint8(len(aps))
		}
		aps = append(aps, int32(a))
		rxMW = append(rxMW, rx)
	}
	return aps, rxMW, cell, servI, dropped
}

// TestMetroIndexedEquivalence: after a diurnal cycle and a half with
// mobility, every UE's grid-built adjacency row and serving AP equal
// the brute ascending scan — fails if rebuildRow or
// geo.Grid.AppendWithin drifts. Rows are bounded below the densest
// neighborhood so the keep-the-lowest-indices overflow rule is in play.
func TestMetroIndexedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		cfg := smallCity(seed)
		cfg.MaxNeighbors = 12
		w := New(cfg)
		w.Run(45)
		k := cfg.MaxNeighbors
		overflow := 0
		for u := 0; u < cfg.NUEs; u++ {
			aps, rxMW, cell, servI, dropped := bruteRow(w, u)
			n := int(w.nbrN[u])
			if n != len(aps) || w.ueCell[u] != cell || (cell >= 0 && w.ueServI[u] != servI) {
				t.Fatalf("seed %d UE %d: row of %d serving %d (index %d), brute scan %d serving %d (index %d)",
					seed, u, n, w.ueCell[u], w.ueServI[u], len(aps), cell, servI)
			}
			for i := range aps {
				if w.nbrAP[u*k+i] != aps[i] || w.nbrRxMW[u*k+i] != rxMW[i] {
					t.Fatalf("seed %d UE %d entry %d: (%d, %g), brute scan (%d, %g)",
						seed, u, i, w.nbrAP[u*k+i], w.nbrRxMW[u*k+i], aps[i], rxMW[i])
				}
			}
			overflow += dropped
		}
		if overflow == 0 || w.DeliveredBits() == 0 {
			t.Fatalf("seed %d: vacuous run (%d APs past the row bound, %d bits delivered)", seed, overflow, w.DeliveredBits())
		}
	}
}

// The attach population must actually follow the diurnal curve: low at
// the day boundary, peaking mid-day.
func TestMetroDiurnalRamp(t *testing.T) {
	w := New(smallCity(3))
	day := w.Cfg.DayEpochs
	w.Step()
	low := w.AttachedCount()
	for w.Epoch() < int64(day/2) {
		w.Step()
	}
	high := w.AttachedCount()
	wantLow := int(w.Cfg.MinLoadFrac*float64(w.Cfg.NUEs)) + day
	wantHigh := int(0.9 * w.Cfg.MaxLoadFrac * float64(w.Cfg.NUEs))
	if low > wantLow {
		t.Fatalf("early-day attach %d, want <= %d", low, wantLow)
	}
	if high < wantHigh {
		t.Fatalf("mid-day attach %d, want >= %d", high, wantHigh)
	}
	// Over the rising half-day the latest count is the run's peak and
	// the mean lies strictly between the two ends.
	if mean, peak := w.Attached(); peak != high || mean <= float64(low) || mean >= float64(high) {
		t.Fatalf("attached mean %.1f / peak %d over a ramp from %d to %d", mean, peak, low, high)
	}
}

// With the attach population frozen and mobility off, the epoch sweep
// is the pure hot path — SoA scan + grid-free fading multiplies — and
// must not allocate once the streaming sketch has seen the value set.
func TestMetroStepZeroAllocs(t *testing.T) {
	cfg := smallCity(5)
	cfg.MoveFraction = 0
	cfg.MinLoadFrac, cfg.MaxLoadFrac = 0.6, 0.6
	w := New(cfg)
	w.Run(60) // warm: stable buckets, stable loads
	avg := testing.AllocsPerRun(50, func() { w.Step() })
	if avg != 0 {
		t.Fatalf("metro Step allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// City-scale smoke: the headline configuration builds and makes
// forward progress. The benchmark's city_diurnal workload carries the
// realtime factor (ops_per_s); this test only guards that the scenario
// functions.
func TestMetroCityScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale world build is ~1s; skipped in -short")
	}
	cfg := DefaultCity(1)
	start := time.Now()
	w := New(cfg)
	w.Run(3)
	elapsed := time.Since(start)
	if w.AttachedCount() < cfg.NUEs/5 {
		t.Fatalf("only %d of %d UEs attached", w.AttachedCount(), cfg.NUEs)
	}
	if w.DeliveredBits() == 0 {
		t.Fatal("city delivered no traffic")
	}
	t.Logf("built + 3 epochs of %d APs / %d UEs in %v (attached %d, %.1f Gbit delivered)",
		cfg.NAPs, cfg.NUEs, elapsed, w.AttachedCount(), float64(w.DeliveredBits())/1e9)
}

func BenchmarkMetroEpoch(b *testing.B) {
	cfg := DefaultCity(1)
	w := New(cfg)
	w.Run(5) // past the coldest part of the ramp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}
