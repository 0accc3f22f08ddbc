package metro

import (
	"testing"
	"time"
)

// smallCity is a brute-force-tractable world that still has coverage
// holes, handovers and row overflow.
func smallCity(seed int64, indexed bool) Config {
	return Config{
		Seed:            seed,
		NAPs:            60,
		NUEs:            1500,
		AreaW:           2400,
		AreaH:           1600,
		APSpacingM:      150,
		RadiusM:         500,
		UseSpatialIndex: indexed,
		MaxNeighbors:    16,
		APPowerDBm:      30,
		DayEpochs:       30,
		MinLoadFrac:     0.2,
		MaxLoadFrac:     0.9,
		MoveFraction:    0.1,
		SpeedMps:        20,
	}
}

// TestMetroIndexedEquivalence: the grid-indexed neighbor rows are
// bit-identical to the brute-force truncated scan — every UE's serving
// cell, delivered bits, CQI and the streaming aggregates agree exactly
// across a full diurnal cycle with mobility, over many seeds.
func TestMetroIndexedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		a := New(smallCity(seed, false))
		b := New(smallCity(seed, true))
		a.Run(45)
		b.Run(45)
		for u := 0; u < a.Cfg.NUEs; u++ {
			ax, ay, ac, ad, aq := a.UEState(u)
			bx, by, bc, bd, bq := b.UEState(u)
			if ax != bx || ay != by || ac != bc || ad != bd || aq != bq {
				t.Fatalf("seed %d UE %d diverges: brute (%v,%v,%d,%d,%d) indexed (%v,%v,%d,%d,%d)",
					seed, u, ax, ay, ac, ad, aq, bx, by, bc, bd, bq)
			}
		}
		if a.Throughput != b.Throughput {
			t.Fatalf("seed %d: throughput stats diverge: %+v vs %+v", seed, a.Throughput, b.Throughput)
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			if a.ThroughputQ.Quantile(q) != b.ThroughputQ.Quantile(q) {
				t.Fatalf("seed %d q=%v: sketch quantiles diverge", seed, q)
			}
		}
		if a.DeliveredBits() == 0 {
			t.Fatalf("seed %d: vacuous run, nothing delivered", seed)
		}
	}
}

// The attach population must actually follow the diurnal curve: low at
// the day boundary, peaking mid-day.
func TestMetroDiurnalRamp(t *testing.T) {
	w := New(smallCity(3, true))
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
}

// With the attach population frozen and mobility off, the epoch sweep
// is the pure hot path — SoA scan + grid-free fading multiplies — and
// must not allocate once the streaming sketch has seen the value set.
func TestMetroStepZeroAllocs(t *testing.T) {
	cfg := smallCity(5, true)
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
