package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile mirrors the sketch's rank convention on a sorted copy.
func exactQuantile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(q * float64(len(s)-1))
	return s[rank]
}

// checkSketchAccuracy asserts every decile estimate is within the
// advertised relative error of the exact sample quantile.
func checkSketchAccuracy(t *testing.T, name string, samples []float64, alpha float64) {
	t.Helper()
	s := NewQuantileSketch(alpha)
	for _, v := range samples {
		s.Add(v)
	}
	if s.count != int64(len(samples)) {
		t.Fatalf("%s: count %d, want %d", name, s.count, len(samples))
	}
	for q := 0.0; q <= 1.0; q += 0.1 {
		got := s.Quantile(q)
		want := exactQuantile(samples, q)
		if want == 0 {
			if got != 0 {
				t.Fatalf("%s q=%.1f: got %v, want exactly 0", name, q, got)
			}
			continue
		}
		if rel := math.Abs(got-want) / want; rel > alpha {
			t.Fatalf("%s q=%.1f: got %v, want %v (rel err %.4f > alpha %.2f)",
				name, q, got, want, rel, alpha)
		}
	}
}

// The sketch's error bound must hold regardless of arrival order — the
// orderings that break order-sensitive estimators like P².
func TestQuantileSketchAdversarialOrderings(t *testing.T) {
	const n, alpha = 20000, 0.01
	rng := rand.New(rand.NewSource(1))
	base := make([]float64, n)
	for i := range base {
		// Heavy-tailed: throughputs span ~6 decades.
		base[i] = math.Exp(rng.NormFloat64()*2 + 1)
	}

	sorted := append([]float64(nil), base...)
	sort.Float64s(sorted)
	reversed := make([]float64, n)
	for i, v := range sorted {
		reversed[n-1-i] = v
	}
	// Duplicate-heavy: 16 distinct values, many repeats, some zeros.
	dupes := make([]float64, n)
	for i := range dupes {
		k := rng.Intn(16)
		if k == 0 {
			dupes[i] = 0
		} else {
			dupes[i] = float64(k) * 1.5
		}
	}

	checkSketchAccuracy(t, "random", base, alpha)
	checkSketchAccuracy(t, "sorted", sorted, alpha)
	checkSketchAccuracy(t, "reversed", reversed, alpha)
	checkSketchAccuracy(t, "duplicate-heavy", dupes, alpha)
}

// Merging shard sketches must answer queries exactly like one sketch
// that saw the concatenated stream — the property P²/GK lack and the
// reason the log-bucket design was chosen.
func TestQuantileSketchMergeExact(t *testing.T) {
	const shards, perShard = 8, 5000
	rng := rand.New(rand.NewSource(2))
	single := NewQuantileSketch(0.01)
	parts := make([]*QuantileSketch, shards)
	for sh := range parts {
		parts[sh] = NewQuantileSketch(0.01)
		for i := 0; i < perShard; i++ {
			v := math.Exp(rng.NormFloat64() * 3)
			if rng.Intn(50) == 0 {
				v = 0
			}
			single.Add(v)
			parts[sh].Add(v)
		}
	}
	// Merge in a scrambled order: exactness must be order-independent.
	merged := NewQuantileSketch(0.01)
	for _, sh := range rng.Perm(shards) {
		merged.Merge(parts[sh])
	}
	if merged.count != single.count {
		t.Fatalf("merged count %d, want %d", merged.count, single.count)
	}
	for q := 0.0; q <= 1.0; q += 0.05 {
		if a, b := merged.Quantile(q), single.Quantile(q); a != b {
			t.Fatalf("q=%.2f: merged %v != single-stream %v", q, a, b)
		}
	}
}

// Values and counts the sketch must refuse, each with a panic raised
// before any state changes: +Inf used to pass the guard, count itself
// and die in the bucket slice's make.
func TestQuantileSketchRejectsNegative(t *testing.T) {
	for _, c := range []struct {
		name string
		add  func(s *QuantileSketch)
	}{
		{"Add(-1)", func(s *QuantileSketch) { s.Add(-1) }},
		{"Add(NaN)", func(s *QuantileSketch) { s.Add(math.NaN()) }},
		{"Add(+Inf)", func(s *QuantileSketch) { s.Add(math.Inf(1)) }},
		{"AddN(-1, 3)", func(s *QuantileSketch) { s.AddN(-1, 3) }},
		{"AddN(+Inf, 3)", func(s *QuantileSketch) { s.AddN(math.Inf(1), 3) }},
		{"AddN(1, -1)", func(s *QuantileSketch) { s.AddN(1, -1) }},
	} {
		func() {
			s := NewQuantileSketch(0)
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
				if s.count != 0 || len(s.counts) != 0 {
					t.Errorf("%s left state behind: count %d, %d buckets", c.name, s.count, len(s.counts))
				}
			}()
			c.add(s)
		}()
	}
}

// AddN(v, n) must leave exactly the state n calls of Add(v) leave —
// same window origin, same bucket slice, same zero and total counts —
// through zeros, in-range hits, and growth below and above the covered
// range; n == 0 changes nothing.
func TestQuantileSketchAddNMatchesAdd(t *testing.T) {
	steps := []struct {
		v float64
		n int64
	}{
		{1.5, 7},     // first sample: allocates the window
		{0, 4},       // zeros
		{1.52, 1},    // in range
		{1.5, 0},     // no-op
		{1e-7, 3},    // far below: grows downward
		{3e9, 100},   // far above: grows upward
		{0.02, 1000}, // inside the grown range
		{0, 0},       // no-op on zero
		{1e-12, 2},   // below again
	}
	batch, single := NewQuantileSketch(0.01), NewQuantileSketch(0.01)
	for _, st := range steps {
		batch.AddN(st.v, st.n)
		for i := int64(0); i < st.n; i++ {
			single.Add(st.v)
		}
		if batch.lo != single.lo || batch.zeros != single.zeros || batch.count != single.count ||
			len(batch.counts) != len(single.counts) {
			t.Fatalf("after AddN(%v, %d): lo %d zeros %d count %d buckets %d; %d Adds give lo %d zeros %d count %d buckets %d",
				st.v, st.n, batch.lo, batch.zeros, batch.count, len(batch.counts),
				st.n, single.lo, single.zeros, single.count, len(single.counts))
		}
		for i := range batch.counts {
			if batch.counts[i] != single.counts[i] {
				t.Fatalf("after AddN(%v, %d): bucket %d holds %d, %d Adds give %d",
					st.v, st.n, batch.lo+i, batch.counts[i], st.n, single.counts[i])
			}
		}
	}
	if batch.count != 1117 || batch.zeros != 4 {
		t.Fatalf("count %d zeros %d, want 1117 and 4", batch.count, batch.zeros)
	}
}

func BenchmarkQuantileSketchAdd(b *testing.B) {
	s := NewQuantileSketch(0.01)
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64() * 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(vals[i&1023])
	}
}
