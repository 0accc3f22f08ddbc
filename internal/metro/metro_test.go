package metro

import (
	"math"
	"strings"
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

// New must refuse, by a panic naming the field, every config that would
// otherwise corrupt or crash a run some epochs in: a row longer than the
// one-byte serving index can address (the branchless sweep would peel
// the wrong entry), a load fraction that walks the attach permutation
// out of range, a day length that divides by zero in loadFrac. The
// legal extremes next to each must build and run.
func TestMetroNewRefusesBadConfig(t *testing.T) {
	tiny := func(mut func(*Config)) Config {
		cfg := smallCity(1)
		cfg.NAPs, cfg.NUEs = 12, 80
		mut(&cfg)
		return cfg
	}
	for _, c := range []struct {
		field string
		mut   func(*Config)
	}{
		{"MaxNeighbors", func(c *Config) { c.MaxNeighbors = 257 }},
		{"MaxLoadFrac", func(c *Config) { c.MaxLoadFrac = 1.01 }},
		{"MinLoadFrac", func(c *Config) { c.MinLoadFrac = -0.01 }},
		{"MinLoadFrac", func(c *Config) { c.MinLoadFrac = math.NaN() }},
		{"DayEpochs", func(c *Config) { c.DayEpochs = 0 }},
		{"DayEpochs", func(c *Config) { c.DayEpochs = -5 }},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.field) {
					t.Errorf("New with a bad %s: recovered %q, want a panic naming the field", c.field, msg)
				}
			}()
			New(tiny(c.mut))
		}()
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.MaxNeighbors = 256 },
		func(c *Config) { c.MinLoadFrac, c.MaxLoadFrac = 0, 1 },
		func(c *Config) { c.DayEpochs = 1 },
	} {
		w := New(tiny(mut))
		w.Run(3)
		if w.Epoch() != 3 {
			t.Fatalf("legal extreme config stopped at epoch %d", w.Epoch())
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
// must not allocate once the streaming sketch has seen the value set
// and the (load, CQI) tally has grown to the highest load.
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

// The sweep tallies unclipped samples by (load, CQI) and folds each pair
// once, while a UE whose queue runs dry takes the per-sample path with
// the clipped value. Whatever the route, one epoch must add exactly one
// sample per attached UE, equal to the bits that UE was delivered: give
// every seventh attached UE a 5-bit queue, step once, and rebuild the
// expected moments and sketch one Add at a time from the per-UE
// delivered deltas. With and without incumbents, so both row loops run.
func TestMetroSamplesAreDeliveredBits(t *testing.T) {
	for _, cfg := range []Config{smallCity(4), shardCity(4, 1)} {
		w := New(cfg)
		w.Run(8) // rising ramp; shardCity's first incumbent is on the air
		short := 0
		for u := range w.ueQueued {
			if w.ueAttached[u] && w.ueCell[u] >= 0 {
				if short++; short%7 == 0 {
					w.ueQueued[u] = 5
				}
			}
		}
		before := append([]int64(nil), w.ueDelivered...)
		wantThr, wantQ := w.sctx[0].thr, w.ThroughputQ()
		w.Step()

		var clipped, unclipped, zeros int
		for u, attached := range w.ueAttached {
			if !attached {
				continue
			}
			d := w.ueDelivered[u] - before[u]
			switch {
			case d == 0:
				zeros++
			case d == 5 && w.ueQueued[u] == 0:
				clipped++
			default:
				unclipped++
			}
			wantThr.add(d)
			wantQ.Add(float64(d) / 1e6)
		}
		if clipped == 0 || unclipped == 0 || zeros == 0 {
			t.Fatalf("vacuous epoch: %d clipped, %d unclipped, %d zero samples", clipped, unclipped, zeros)
		}
		if got := w.sctx[0].thr; got != wantThr {
			t.Fatalf("moments %+v, per-UE deltas give %+v", got, wantThr)
		}
		// A sketch that lost or gained a sample shifts some rank.
		gotQ := w.ThroughputQ()
		n := float64(wantThr.n - 1)
		for r := 0.5; r < n; r++ { // every rank
			if a, b := gotQ.Quantile(r/n), wantQ.Quantile(r/n); a != b {
				t.Fatalf("rank %d: sketch %v Mbps, per-UE deltas give %v", int(r), a, b)
			}
		}
	}
}

// addN(v, n) is n calls of add(v), through the 128-bit carry: v near
// 2^40 (a backlogged queue) squared and multiplied by 10^5 overflows the
// low word many times over.
func TestBitMomentsAddN(t *testing.T) {
	for _, v := range []int64{0, 1, 12345, 1<<40 - 3, 1<<40 + 7} {
		const n = 100_000
		var batch, single bitMoments
		batch.add(77) // a prior sample, so min/max/carry merge into state
		single.add(77)
		batch.addN(v, n)
		for i := 0; i < n; i++ {
			single.add(v)
		}
		if batch != single {
			t.Fatalf("addN(%d, %d) = %+v, %d adds give %+v", v, n, batch, n, single)
		}
		if v > 1<<39 && batch.sqHi == 0 {
			t.Fatalf("addN(%d, %d) never carried into the high word", v, n)
		}
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
