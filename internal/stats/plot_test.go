package stats

import (
	"math"
	"strings"
	"testing"
)

func linePoints(f func(x float64) float64, from, to float64, n int) [][2]float64 {
	pts := make([][2]float64, n)
	for i := range pts {
		x := from + (to-from)*float64(i)/float64(n-1)
		pts[i] = [2]float64{x, f(x)}
	}
	return pts
}

func TestPlotBasicShape(t *testing.T) {
	s := Series{Name: "line", Points: linePoints(func(x float64) float64 { return x }, 0, 10, 50)}
	out := Plot([]Series{s})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 18 {
		t.Fatalf("plot too short: %d lines", len(lines))
	}
	// Axis bounds rendered.
	if !strings.Contains(out, "10") || !strings.Contains(out, "0") {
		t.Fatal("axis bounds missing")
	}
	// An increasing line: the glyph in the top row must be to the
	// right of the glyph in the bottom data row.
	topIdx := strings.IndexByte(lines[0], '*')
	botIdx := strings.IndexByte(lines[17], '*')
	if topIdx < 0 || botIdx < 0 {
		t.Fatalf("glyphs missing: top %d bottom %d\n%s", topIdx, botIdx, out)
	}
	if topIdx <= botIdx {
		t.Fatalf("increasing line rendered decreasing\n%s", out)
	}
}

func TestPlotMultipleSeriesLegend(t *testing.T) {
	a := Series{Name: "first", Points: linePoints(func(x float64) float64 { return x }, 0, 1, 10)}
	b := Series{Name: "second", Points: linePoints(func(x float64) float64 { return 1 - x }, 0, 1, 10)}
	out := Plot([]Series{a, b})
	if !strings.Contains(out, "* first") || !strings.Contains(out, "o second") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "o") {
		t.Fatal("second glyph not drawn")
	}
}

func TestPlotEmptyAndDegenerate(t *testing.T) {
	if got := Plot(nil); got != "(no data)\n" {
		t.Fatalf("empty plot = %q", got)
	}
	nanSeries := Series{Points: [][2]float64{{math.NaN(), math.NaN()}}}
	if got := Plot([]Series{nanSeries}); got != "(no data)\n" {
		t.Fatalf("NaN-only plot = %q", got)
	}
	// A single point (zero range) must not divide by zero.
	one := Series{Points: [][2]float64{{5, 5}}}
	out := Plot([]Series{one})
	if !strings.Contains(out, "*") {
		t.Fatal("single point not rendered")
	}
}

// Every plot is 18 rows of 72 columns behind a 10-column axis label
// and a bar, followed by the x axis.
func checkPlotSize(t *testing.T, s Series) {
	t.Helper()
	lines := strings.Split(Plot([]Series{s}), "\n")
	if len(lines) < 19 {
		t.Fatalf("plot has %d lines, want 18 rows and an x axis", len(lines))
	}
	for _, line := range lines[:18] {
		if len(line) != 10+2+72 {
			t.Fatalf("row is %d wide, want %d: %q", len(line), 10+2+72, line)
		}
	}
	if !strings.HasSuffix(lines[18], "+"+strings.Repeat("-", 72)) {
		t.Fatalf("x axis = %q, want 72 dashes", lines[18])
	}
}

func TestPlotRespectsSize(t *testing.T) {
	checkPlotSize(t, Series{Points: linePoints(math.Sin, 0, 6.28, 100)})
}

// A tiny series (five points over a narrow range) still gets the full
// standard plot, not one shrunk to its data.
func TestPlotTinySizeFallsBack(t *testing.T) {
	checkPlotSize(t, Series{Points: linePoints(math.Sin, 0, 1, 5)})
}

func TestTrimNum(t *testing.T) {
	cases := map[float64]string{
		0:     "0",
		10:    "10",
		123.4: "123",
		1.25:  "1.2",
		0.125: "0.125",
	}
	for in, want := range cases {
		if got := trimNum(in); got != want {
			t.Errorf("trimNum(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestHeatmapBasics(t *testing.T) {
	grid := [][]float64{
		{0, 1, 2},
		{3, 4, 5},
		{6, 7, 8},
	}
	out := Heatmap(grid, map[[2]int]byte{{1, 1}: 'A'})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("heatmap lines = %d", len(lines))
	}
	if lines[1][1] != 'A' {
		t.Fatalf("mark not placed: %q", lines[1])
	}
	// Intensity increases down the grid: last row darker than first.
	if lines[0][0] != ' ' {
		t.Fatalf("minimum cell should be the lightest glyph: %q", lines[0])
	}
	if lines[2][2] != '@' {
		t.Fatalf("maximum cell should be the darkest glyph: %q", lines[2])
	}
	if !strings.Contains(lines[3], "scale:") {
		t.Fatal("scale line missing")
	}
}

func TestHeatmapDegenerate(t *testing.T) {
	if Heatmap(nil, nil) != "(no data)\n" {
		t.Fatal("empty heatmap")
	}
	nan := [][]float64{{math.NaN()}}
	if Heatmap(nan, nil) != "(no data)\n" {
		t.Fatal("NaN-only heatmap")
	}
	flat := [][]float64{{5, 5}, {5, 5}}
	out := Heatmap(flat, nil)
	if !strings.Contains(out, "scale:") {
		t.Fatal("flat heatmap broke")
	}
}

// TestHeatmapMarksOverlay: marks take precedence over every cell kind —
// values, NaN holes — and land at exact (row, col) positions; marks
// addressing cells outside the grid are ignored.
func TestHeatmapMarksOverlay(t *testing.T) {
	grid := [][]float64{
		{0, math.NaN(), 10},
		{10, 0, math.NaN()},
	}
	marks := map[[2]int]byte{
		{0, 1}: 'N', // over a NaN hole
		{1, 0}: 'M', // over the maximum
		{9, 9}: 'Z', // outside the grid: ignored
	}
	out := Heatmap(grid, marks)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("heatmap lines = %d, want 2 rows + scale", len(lines))
	}
	if lines[0][1] != 'N' {
		t.Fatalf("mark over NaN not placed: %q", lines[0])
	}
	if lines[1][0] != 'M' {
		t.Fatalf("mark over value not placed: %q", lines[1])
	}
	if lines[1][2] != ' ' {
		t.Fatalf("unmarked NaN cell should render as space: %q", lines[1])
	}
	if lines[0][2] != '@' || lines[0][0] != ' ' {
		t.Fatalf("ramp extremes wrong around marks: %q", lines[0])
	}
	if strings.ContainsRune(out, 'Z') {
		t.Fatal("out-of-grid mark leaked into the rendering")
	}
}

// TestHeatmapOccupancyTimeline pins the rendering `cellfi trace timeline`
// relies on: a 0/1 occupancy grid renders held cells with the darkest
// glyph, free cells as spaces, and hop marks on top.
func TestHeatmapOccupancyTimeline(t *testing.T) {
	grid := [][]float64{
		{1, 1, 0, 0},
		{0, 0, 1, 1},
	}
	marks := map[[2]int]byte{{0, 2}: 'x', {1, 2}: '+'}
	out := Heatmap(grid, marks)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "@@x " {
		t.Fatalf("row 0 = %q, want \"@@x \"", lines[0])
	}
	if lines[1] != "  +@" {
		t.Fatalf("row 1 = %q, want \"  +@\"", lines[1])
	}
	if !strings.Contains(lines[2], "' ' = 0") || !strings.Contains(lines[2], "'@' = 1") {
		t.Fatalf("scale line = %q", lines[2])
	}
}

// TestHeatmapRaggedRows: rows of different lengths render at their own
// width without panicking or bleeding marks across rows.
func TestHeatmapRaggedRows(t *testing.T) {
	grid := [][]float64{
		{0, 1, 2, 3},
		{3},
	}
	out := Heatmap(grid, map[[2]int]byte{{1, 0}: 'R'})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines[0]) != 4 || len(lines[1]) != 1 {
		t.Fatalf("row widths = %d,%d, want 4,1", len(lines[0]), len(lines[1]))
	}
	if lines[1] != "R" {
		t.Fatalf("ragged-row mark lost: %q", lines[1])
	}
}
