package propagation

import (
	"math"
	"sort"
	"testing"
)

// Kernel v2's sampler must still be Exponential(1): a Kolmogorov–
// Smirnov test against 1 - exp(-x) over a large hash-driven sample,
// plus the first three moments. The draws come through the public
// GainLinear face so the whole pipeline (base hash, per-link round,
// ziggurat) is under test.
func TestFadingZigguratDistribution(t *testing.T) {
	f := NewFading(11)
	const n = 200_000
	xs := make([]float64, n)
	var sum, sumSq, sumCube float64
	for i := 0; i < n; i++ {
		x := f.GainLinear(uint64(i), i%7, int64(i/7)*100)
		if x <= 0 {
			t.Fatalf("draw %d: gain %g, want strictly positive", i, x)
		}
		xs[i] = x
		sum += x
		sumSq += x * x
		sumCube += x * x * x
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("mean = %.4f, want 1 (Exp(1))", mean)
	}
	// Exp(1): E[X^2] = 2, E[X^3] = 6.
	if m2 := sumSq / n; math.Abs(m2-2) > 0.05 {
		t.Errorf("E[X^2] = %.4f, want 2", m2)
	}
	if m3 := sumCube / n; math.Abs(m3-6) > 0.4 {
		t.Errorf("E[X^3] = %.4f, want 6", m3)
	}

	sort.Float64s(xs)
	var d float64
	for i, x := range xs {
		cdf := 1 - math.Exp(-x)
		if lo := cdf - float64(i)/n; lo > d {
			d = lo
		}
		if hi := float64(i+1)/n - cdf; hi > d {
			d = hi
		}
	}
	// KS critical value at alpha = 0.001 is ~1.95/sqrt(n); use 2.2 so
	// the test only trips on a broken sampler, not an unlucky seed.
	if crit := 2.2 / math.Sqrt(n); d > crit {
		t.Errorf("KS statistic %.5f exceeds %.5f — sampler is not Exp(1)", d, crit)
	}
}

// The deep-fade rate (Rayleigh envelope below -10 dB, i.e. power below
// 0.1) must match P(Exp(1) < 0.1) ~ 9.5% — the property the SINR
// dynamics depend on.
func TestFadingZigguratDeepFades(t *testing.T) {
	f := NewFading(3)
	const n = 50_000
	deep := 0
	for i := 0; i < n; i++ {
		if f.GainLinear(uint64(i), 0, 0) < 0.1 {
			deep++
		}
	}
	frac := float64(deep) / n
	if frac < 0.08 || frac > 0.11 {
		t.Errorf("deep-fade fraction = %.4f, want about 0.095", frac)
	}
}

// The v2 draw stream is pinned: these exact float64 bits must never
// change without a deliberate kernel version bump (regenerate with
// go test -run TestFadingGoldenVector -v -tags fadinggen and update
// both this table and the DESIGN.md kernel note). The benchmark's city
// digests and any cross-binary reproduction depend on it.
func TestFadingGoldenVector(t *testing.T) {
	f := NewFading(7)
	cases := []struct {
		link uint64
		sc   int
		tMS  int64
	}{
		{0, 0, 0},
		{1, 0, 0},
		{1, 3, 0},
		{1, 3, 100},
		{12345, 7, 900},
		{1 << 40, 2, 123456},
		{42, 12, 1_000_000},
		{999_999, 1, 50},
	}
	got := make([]uint64, len(cases))
	for i, c := range cases {
		got[i] = math.Float64bits(f.GainLinear(c.link, c.sc, c.tMS))
	}
	want := []uint64{
		0x3ff73c4de8b52b4a, // 1.4522227373260699
		0x3ff8164e684cedbd, // 1.5054458688963301
		0x3fc60e0ba3b8b929, // 0.17230363363473458
		0x3ff5c3399b72ac1d, // 1.3601623603997333
		0x3fe61af728a199e0, // 0.6907916825846847
		0x3fc2ee93495a2e37, // 0.14790574151662536
		0x3ffa4a9276a846b3, // 1.643206084733191
		0x3fd1cf76fc414edf, // 0.27828764566696224
	}
	for i := range cases {
		if got[i] != want[i] {
			t.Errorf("case %d (%+v): gain bits %#016x, want %#016x (value %g)",
				i, cases[i], got[i], want[i], math.Float64frombits(got[i]))
		}
	}
}

// AppendGainsLinear is the batch face of GainLinear: bit-identical
// values, append semantics, and unit gains when fading is nil or
// disabled.
func TestAppendGainsLinearMatchesScalar(t *testing.T) {
	f := NewFading(9)
	links := make([]uint64, 257) // crosses the scratch-growth boundary
	for i := range links {
		links[i] = uint64(i * 2654435761)
	}
	for _, sc := range []int{0, 3, 12} {
		for _, tMS := range []int64{0, 99, 100, 123456} {
			dst := f.AppendGainsLinear([]float64{-1}, links, sc, tMS)
			if len(dst) != 1+len(links) || dst[0] != -1 {
				t.Fatalf("append semantics broken: len %d, dst[0] %g", len(dst), dst[0])
			}
			for i, l := range links {
				if want := f.GainLinear(l, sc, tMS); dst[1+i] != want {
					t.Fatalf("sc %d tMS %d link %d: batch %g != scalar %g",
						sc, tMS, l, dst[1+i], want)
				}
			}
		}
	}
	var nilF *Fading
	for _, g := range nilF.AppendGainsLinear(nil, links[:4], 0, 0) {
		if g != 1 {
			t.Fatalf("nil fading batch gain %g, want 1", g)
		}
	}
	off := &Fading{Disabled: true, BlockMS: 100}
	for _, g := range off.AppendGainsLinear(nil, links[:4], 0, 0) {
		if g != 1 {
			t.Fatalf("disabled fading batch gain %g, want 1", g)
		}
	}
}

// The ziggurat fast path must dominate: count slow-path entries (tail
// or wedge) over a large sample by comparing against a re-derivation.
// 2.2% of draws leave the fast path in this 256-layer exponential
// ziggurat (97.8% accept on the table compare); fail if the table
// construction ever degrades that.
func TestZigguratAcceptRate(t *testing.T) {
	const n = 1_000_000
	slow := 0
	for i := 0; i < n; i++ {
		if slowPath(fadeRound(uint64(i)*0x9e3779b97f4a7c15+1, 0xabcdef)) {
			slow++
		}
	}
	if frac := float64(slow) / n; frac > 0.03 {
		t.Errorf("ziggurat slow-path rate %.4f, want < 0.03", frac)
	}
}

func BenchmarkFadeDrawScalar(b *testing.B) {
	f := NewFading(1)
	links := benchLinks()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += f.GainLinear(links[i&1023], 3, 4200)
	}
	_ = sink
}

// BenchmarkFadeDrawBatch is the batch draw into a caller's slice: one op
// = one draw, amortized over 32-link rows (the city's MaxNeighbors).
func BenchmarkFadeDrawBatch(b *testing.B) {
	f := NewFading(1)
	links := benchLinks()[:32]
	dst := make([]float64, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 32 {
		dst = f.AppendGainsLinear(dst[:0], links, 3, 4200)
	}
	_ = dst
}

// BenchmarkFadeWeightedSum is the kernel the metro sweep rides: one op =
// one fused draw-and-accumulate pass over a 32-link row; ns/link is the
// figure to compare with BenchmarkFadeDrawBatch's ns/op.
func BenchmarkFadeWeightedSum(b *testing.B) {
	row := NewFading(1).Row(3, 4200)
	aps := make([]int32, 32)
	rx := make([]float32, 32)
	for i := range aps {
		aps[i] = int32(i * 61 % 2000)
		rx[i] = float32(i+1) * 1e-9
	}
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total, sig := row.WeightedSum(aps, 2000+i&0xffff, rx, i&31)
		sink += total - sig
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/32, "ns/link")
	_ = sink
}

// benchTransmitters is a netsim-shaped transmitter list: 32 ascending
// cells out of 2000 and one receiver's rx powers indexed by cell.
func benchTransmitters() (cells []int32, rx []float64) {
	cells = make([]int32, 32)
	rx = make([]float64, 2000)
	for i := range cells {
		cells[i] = int32(i * 61)
	}
	for c := range rx {
		rx[c] = float64(c%97+1) * 1e-9
	}
	return cells, rx
}

// BenchmarkFadeAddSum is the kernel behind netsim's observation SINR:
// one op = one pass over a 32-cell transmitter list onto a noise floor.
func BenchmarkFadeAddSum(b *testing.B) {
	row := NewFading(1).Row(3, 4200)
	cells, rx := benchTransmitters()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += row.AddSum(1e-12, cells, 2000+i&0xffff, rx, cells[i&31])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/32, "ns/link")
	_ = sink
}

// BenchmarkFadeSumRows is the kernel behind netsim's served SINR: one op
// = one pass over a 32-cell transmitter list for ten coherence blocks;
// ns/link counts each (cell, block) draw.
func BenchmarkFadeSumRows(b *testing.B) {
	f := NewFading(1)
	rows := make([]FadeRow, 10)
	for i := range rows {
		rows[i] = f.Row(3, 4000+int64(i)*100)
	}
	cells, rx := benchTransmitters()
	acc := make([]float64, len(rows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SumRows(rows, cells, 2000+i&0xffff, rx, cells[i&31], acc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/32/float64(len(rows)), "ns/link")
}

// The batch draw over one 32-link adjacency row writes into the caller's
// slice and nothing else: the metro sweep's 0-alloc epoch depends on it.
func TestAppendGainsLinearZeroAllocs(t *testing.T) {
	f := NewFading(1)
	links := benchLinks()[:32]
	dst := make([]float64, 0, 32)
	if avg := testing.AllocsPerRun(200, func() {
		dst = f.AppendGainsLinear(dst[:0], links, 3, 4200)
	}); avg != 0 {
		t.Errorf("AppendGainsLinear over a 32-link row allocates %.1f allocs/op, want 0", avg)
	}
}

func benchLinks() []uint64 {
	links := make([]uint64, 1024)
	for i := range links {
		links[i] = LinkID(i%2000, 2000+i)
	}
	return links
}

// GainDB is defined as 10*log10(GainLinear); the two must agree
// bit-for-bit so switching a hot path to the linear form cannot perturb
// any seeded result.
func TestFadingGainLinearMatchesGainDB(t *testing.T) {
	f := NewFading(7)
	for link := uint64(0); link < 50; link++ {
		for sc := 0; sc < 4; sc++ {
			for tMS := int64(0); tMS < 1000; tMS += 100 {
				lin := f.GainLinear(link, sc, tMS)
				if lin <= 0 {
					t.Fatalf("GainLinear = %g, want positive", lin)
				}
				if db := f.GainDB(link, sc, tMS); db != 10*math.Log10(lin) {
					t.Fatalf("GainDB %g != 10*log10(GainLinear) %g", db, 10*math.Log10(lin))
				}
			}
		}
	}
	var nilF *Fading
	if nilF.GainLinear(1, 0, 0) != 1 || nilF.GainDB(1, 0, 0) != 0 {
		t.Fatal("nil Fading must be a unit gain")
	}
	off := &Fading{Disabled: true, BlockMS: 100}
	if off.GainLinear(1, 0, 0) != 1 || off.GainDB(1, 0, 0) != 0 {
		t.Fatal("disabled Fading must be a unit gain")
	}
}
