package runner

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// cpuSpecs builds a CPU-bound fleet: each scenario drives a sim.Engine
// through `events` dispatches with seed-derived jitter — the shape of
// the Wi-Fi/LTE event simulations behind Figures 1, 2 and 9.
func cpuSpecs(n, events int) []Spec {
	specs := make([]Spec, n)
	for i := 0; i < n; i++ {
		specs[i] = Spec{
			Label: fmt.Sprintf("cpu/%02d", i),
			Seed:  int64(i)*2654435761 + 1,
			Run: func(c *Ctx) (any, error) {
				eng := c.Engine(c.Seed())
				rng := eng.NewStream("bench")
				sum, fired := 0.0, 0
				var tick func()
				tick = func() {
					sum += rng.Float64()
					fired++
					if fired < events {
						eng.After(time.Duration(1+rng.Intn(100))*time.Microsecond, tick)
					}
				}
				eng.After(0, tick)
				eng.RunAll()
				return sum, nil
			},
		}
	}
	return specs
}

// latencySpecs builds a latency-bound fleet: each scenario waits on a
// fixed external delay — the shape of PAWS database campaigns, where a
// run blocks on HTTP round trips rather than the CPU.
func latencySpecs(n int, d time.Duration) []Spec {
	specs := make([]Spec, n)
	for i := 0; i < n; i++ {
		specs[i] = Spec{
			Label: fmt.Sprintf("latency/%02d", i),
			Seed:  int64(i),
			Run: func(c *Ctx) (any, error) {
				select {
				case <-time.After(d):
				case <-c.Context().Done():
					return nil, c.Context().Err()
				}
				c.AddSteps(1)
				return float64(c.Seed()), nil
			},
		}
	}
	return specs
}

// BenchmarkFleet reports campaign wall time per worker count; on a
// multi-core machine the CPU-bound fleet scales near-linearly until
// workers exceed cores.
func BenchmarkFleet(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := Run(context.Background(), "bench", cpuSpecs(32, 2000),
					Options{Workers: workers})
				if err := rep.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCampaignSpeedup runs the acceptance campaign: 32 scenarios, 1
// worker vs 8 workers, byte-identical results, and a >= 3x wall-clock
// speedup with 8 workers (CPU-bound on machines with >= 4 cores, and
// always for the latency-bound fleet).
func TestCampaignSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second timing campaign")
	}
	const fleet = 32

	// Latency-bound: speedup must appear on any machine.
	lat1 := Run(context.Background(), "latency-1w", latencySpecs(fleet, 40*time.Millisecond), Options{Workers: 1})
	lat8 := Run(context.Background(), "latency-8w", latencySpecs(fleet, 40*time.Millisecond), Options{Workers: 8})
	if err := lat1.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aggregate(t, lat1), aggregate(t, lat8)) {
		t.Fatal("latency fleet results differ across worker counts")
	}
	latSpeedup := lat1.WallMS / lat8.WallMS
	if latSpeedup < 3 {
		t.Errorf("latency-bound speedup %.2fx with 8 workers, want >= 3x", latSpeedup)
	}

	// CPU-bound: near-linear only with real cores under it.
	cpu1 := Run(context.Background(), "cpu-1w", cpuSpecs(fleet, 20000), Options{Workers: 1})
	cpu8 := Run(context.Background(), "cpu-8w", cpuSpecs(fleet, 20000), Options{Workers: 8})
	if err := cpu8.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aggregate(t, cpu1), aggregate(t, cpu8)) {
		t.Fatal("cpu fleet results differ across worker counts")
	}
	cpuSpeedup := cpu1.WallMS / cpu8.WallMS
	if runtime.NumCPU() >= 4 && cpuSpeedup < 3 {
		t.Errorf("cpu-bound speedup %.2fx with 8 workers on %d cores, want >= 3x",
			cpuSpeedup, runtime.NumCPU())
	}
	t.Logf("speedups with 8 workers on %d cores: cpu-bound %.2fx, latency-bound %.2fx",
		runtime.NumCPU(), cpuSpeedup, latSpeedup)
}
