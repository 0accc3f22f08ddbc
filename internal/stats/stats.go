// Package stats provides the small statistics toolkit the experiment
// harness uses: empirical CDFs, percentiles, and fixed-width table
// rendering for paper-style output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts the samples.
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// Quantile returns the q-th quantile (0 <= q <= 1) by linear
// interpolation.
func (c *CDF) Quantile(q float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return c.sorted[n-1]
	}
	return c.sorted[lo]*(1-frac) + c.sorted[lo+1]*frac
}

// Median is Quantile(0.5).
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range c.sorted {
		sum += v
	}
	return sum / float64(len(c.sorted))
}

// Min and Max return the extremes.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}

// FractionBelow returns the fraction of samples strictly below x —
// e.g. the "starved clients" metric with a rate threshold.
func (c *CDF) FractionBelow(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] >= x })
	return float64(i) / float64(len(c.sorted))
}

// Points samples the CDF at n evenly spaced quantiles for plotting:
// pairs of (value, cumulative probability).
func (c *CDF) Points(n int) [][2]float64 {
	if n < 2 || len(c.sorted) == 0 {
		return nil
	}
	out := make([][2]float64, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		out[i] = [2]float64{c.Quantile(q), q}
	}
	return out
}

// Series is a named sequence of (x, y) points — one plotted line.
type Series struct {
	Name   string
	Points [][2]float64
}

// Table renders rows with aligned columns for terminal output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var row strings.Builder
		for i, cell := range cells {
			if i > 0 {
				row.WriteString("  ")
			}
			fmt.Fprintf(&row, "%-*s", widths[i], cell)
		}
		b.WriteString(strings.TrimRight(row.String(), " "))
		b.WriteByte('\n')
	}
	line(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Fmt formats a float compactly for table cells.
func Fmt(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// JainIndex returns Jain's fairness index of the samples:
// (sum x)^2 / (n * sum x^2), in (0, 1]; 1 is perfectly fair. The
// paper's Figure 9(b) discussion claims CellFi "improves the overall
// coverage and fairness" — this is the standard way to score it.
func JainIndex(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum, sumSq float64
	for _, v := range samples {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return math.NaN()
	}
	return sum * sum / (float64(len(samples)) * sumSq)
}
