package stats

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistIndexMonotoneAndBounded(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1 << 40, math.MaxInt64} {
		idx := histIndex(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, idx)
		}
		if idx < prev {
			t.Fatalf("histIndex not monotone at %d", v)
		}
		prev = idx
		if up := histUpper(idx); up < v {
			t.Errorf("histUpper(%d) = %d < recorded value %d", idx, up, v)
		}
	}
	if histIndex(-5) != 0 {
		t.Errorf("negative values should clamp to bucket 0")
	}
}

func TestHistUpperIsTightBound(t *testing.T) {
	// Every value's bucket upper bound must be within ~3.2% (1/32) of
	// the value itself — the histogram's advertised resolution.
	for v := int64(1); v < 1<<40; v = v*17/16 + 1 {
		up := histUpper(histIndex(v))
		if up < v {
			t.Fatalf("upper(%d) = %d below value", v, up)
		}
		if float64(up-v) > float64(v)/16+1 {
			t.Fatalf("upper(%d) = %d too loose", v, up)
		}
	}
}

func TestHistogramQuantileAgainstCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-normal-ish latencies between ~1µs and ~100ms.
		v := int64(math.Exp(rng.NormFloat64()*1.5+10)) + 1
		h.Record(v)
		samples = append(samples, float64(v))
	}
	sort.Float64s(samples)
	cdf := NewCDF(samples)
	snap := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := cdf.Quantile(q)
		got := float64(snap.Quantile(q))
		if got < exact*0.97 || got > exact*1.10 {
			t.Errorf("q=%.3f: histogram %v vs exact %v out of tolerance", q, got, exact)
		}
	}
	if snap.N != 20000 {
		t.Errorf("snapshot N = %d, want 20000", snap.N)
	}
	if m := snap.Mean(); math.Abs(m-cdf.Mean()) > 1e-6 {
		t.Errorf("mean drifted: %v vs %v", m, cdf.Mean())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Intn(1e6)))
			}
		}(w)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.N != workers*per {
		t.Fatalf("lost observations: %d != %d", snap.N, workers*per)
	}
	if q := snap.Quantile(0.5); q <= 0 || q > 2e6 {
		t.Fatalf("implausible median %d", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Quantile(0.99) != 0 || s.Mean() != 0 || s.N != 0 {
		t.Fatal("empty histogram should read as zeros")
	}
}
