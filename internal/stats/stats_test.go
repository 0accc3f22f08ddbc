package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	if c.Len() != 4 {
		t.Fatal("length wrong")
	}
	if c.Min() != 1 || c.Max() != 4 {
		t.Fatalf("extremes %g %g", c.Min(), c.Max())
	}
	if got := c.FractionBelow(3); got != 0.5 {
		t.Fatalf("FractionBelow(3) = %g, want 0.5", got)
	}
	if got := c.FractionBelow(1); got != 0 {
		t.Fatalf("FractionBelow(1) = %g, want 0", got)
	}
	if got := c.FractionBelow(100); got != 1 {
		t.Fatalf("FractionBelow(100) = %g, want 1", got)
	}
	if got := c.Mean(); got != 2.5 {
		t.Fatalf("mean = %g", got)
	}
	if got := c.Median(); got != 2.5 {
		t.Fatalf("median = %g", got)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	c := NewCDF([]float64{0, 10})
	if got := c.Quantile(0.25); got != 2.5 {
		t.Fatalf("Q(0.25) = %g, want 2.5", got)
	}
	if c.Quantile(0) != 0 || c.Quantile(1) != 10 {
		t.Fatal("extreme quantiles wrong")
	}
	if c.Quantile(-1) != 0 || c.Quantile(2) != 10 {
		t.Fatal("out-of-range quantiles should clamp")
	}
}

func TestEmptyCDF(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Mean()) {
		t.Fatal("empty CDF should be NaN")
	}
	if c.FractionBelow(1) != 0 {
		t.Fatal("empty CDF probabilities should be 0")
	}
	if c.Points(5) != nil {
		t.Fatal("empty CDF points should be nil")
	}
}

func TestFractionBelow(t *testing.T) {
	c := NewCDF([]float64{0, 0, 1, 2})
	if got := c.FractionBelow(1); got != 0.5 {
		t.Fatalf("FractionBelow(1) = %g, want 0.5 (strict)", got)
	}
	if got := c.FractionBelow(0); got != 0 {
		t.Fatalf("FractionBelow(0) = %g, want 0", got)
	}
	if got := c.FractionBelow(5); got != 1 {
		t.Fatalf("FractionBelow(5) = %g, want 1", got)
	}
}

func TestPointsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = rng.NormFloat64() * 10
	}
	pts := NewCDF(samples).Points(33)
	if len(pts) != 33 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Fatal("CDF points not monotone")
		}
	}
	if pts[0][1] != 0 || pts[len(pts)-1][1] != 1 {
		t.Fatal("CDF endpoints wrong")
	}
}

// Property: quantile is monotone and At() is its rough inverse.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, qa, qb float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		a := math.Mod(math.Abs(qa), 1)
		b := math.Mod(math.Abs(qb), 1)
		if a > b {
			a, b = b, a
		}
		c := NewCDF(raw)
		return c.Quantile(a) <= c.Quantile(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileMatchesSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	samples := make([]float64, 1001)
	for i := range samples {
		samples[i] = rng.Float64() * 100
	}
	c := NewCDF(samples)
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	// With n=1001, Quantile(k/1000) lands exactly on sorted[k].
	for _, k := range []int{0, 100, 500, 900, 1000} {
		if got := c.Quantile(float64(k) / 1000); got != sorted[k] {
			t.Fatalf("Quantile(%d/1000) = %g, want %g", k, got, sorted[k])
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "Figure 9(a): coverage vs density",
		Headers: []string{"APs", "CellFi", "Wi-Fi"},
	}
	tb.AddRow("6", "98.3", "81.0")
	tb.AddRow("14", "90.1", "65.7")
	out := tb.String()
	if !strings.Contains(out, "Figure 9(a)") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("rendered %d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Fatalf("rule line malformed: %q", lines[2])
	}
	// Columns align: header and rows share the first separator column.
	hIdx := strings.Index(lines[1], "CellFi")
	rIdx := strings.Index(lines[3], "98.3")
	if hIdx != rIdx {
		t.Fatalf("columns misaligned: header at %d, row at %d", hIdx, rIdx)
	}
}

func TestFmt(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{math.NaN(), "-"},
		{0, "0.00"},
		{0.001, "1.00e-03"},
		{12.345, "12.35"},
		{123456, "123456"},
	}
	for _, c := range cases {
		if got := Fmt(c.in); got != c.want {
			t.Errorf("Fmt(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares index = %g, want 1", got)
	}
	// One user hogging everything: index -> 1/n.
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("monopolized index = %g, want 0.25", got)
	}
	mixed := JainIndex([]float64{1, 2, 3, 4})
	if mixed <= 0.25 || mixed >= 1 {
		t.Fatalf("mixed index = %g, want strictly between 1/n and 1", mixed)
	}
	if !math.IsNaN(JainIndex(nil)) || !math.IsNaN(JainIndex([]float64{0, 0})) {
		t.Fatal("degenerate inputs should be NaN")
	}
}
