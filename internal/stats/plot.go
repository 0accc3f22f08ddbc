package stats

import (
	"fmt"
	"math"
	"strings"
)

// ASCII plotting: `cellfi experiments -plot` renders every figure's series as a
// terminal plot so the reproduced shapes can be eyeballed next to the
// paper without leaving the shell.

// PlotOptions sizes a terminal plot.
type PlotOptions struct {
	Width, Height int
	// XLabel / YLabel annotate the axes.
	XLabel, YLabel string
}

// DefaultPlotOptions fits a standard terminal.
func DefaultPlotOptions() PlotOptions {
	return PlotOptions{Width: 72, Height: 18}
}

// plotGlyphs distinguishes up to eight overlaid series.
var plotGlyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Plot renders one or more series into a character grid with shared
// axes. Series are drawn in order; later series overwrite earlier ones
// where they collide.
func Plot(series []Series, opts PlotOptions) string {
	if opts.Width <= 10 || opts.Height <= 4 {
		opts = DefaultPlotOptions()
	}
	// Bounds across all series.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	total := 0
	for _, s := range series {
		for _, p := range s.Points {
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
				continue
			}
			minX, maxX = math.Min(minX, p[0]), math.Max(maxX, p[0])
			minY, maxY = math.Min(minY, p[1]), math.Max(maxY, p[1])
			total++
		}
	}
	if total == 0 {
		return "(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	w, h := opts.Width, opts.Height
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range series {
		glyph := plotGlyphs[si%len(plotGlyphs)]
		for _, p := range s.Points {
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
				continue
			}
			col := int((p[0] - minX) / (maxX - minX) * float64(w-1))
			row := h - 1 - int((p[1]-minY)/(maxY-minY)*float64(h-1))
			grid[row][col] = glyph
		}
	}

	var b strings.Builder
	if opts.YLabel != "" {
		fmt.Fprintf(&b, "%s\n", opts.YLabel)
	}
	for r, line := range grid {
		var label string
		switch r {
		case 0:
			label = trimNum(maxY)
		case h - 1:
			label = trimNum(minY)
		}
		fmt.Fprintf(&b, "%10s |%s\n", label, string(line))
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", w))
	fmt.Fprintf(&b, "%10s  %-*s%s\n", "", w-len(trimNum(maxX)), trimNum(minX), trimNum(maxX))
	if opts.XLabel != "" {
		fmt.Fprintf(&b, "%10s  %s\n", "", opts.XLabel)
	}
	if len(series) > 1 {
		b.WriteString("            ")
		for si, s := range series {
			if si > 0 {
				b.WriteString("   ")
			}
			fmt.Fprintf(&b, "%c %s", plotGlyphs[si%len(plotGlyphs)], s.Name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// trimNum formats an axis bound compactly.
func trimNum(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e6:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// heatRamp maps normalized intensity to characters, light to dark.
var heatRamp = []byte(" .:-=+*#%@")

// Heatmap renders a row-major grid of values as an ASCII intensity
// map. Rows render top-down; NaN cells render as spaces. Marks places
// labelled glyphs on top (e.g. access-point positions).
func Heatmap(grid [][]float64, marks map[[2]int]byte) string {
	if len(grid) == 0 {
		return "(no data)\n"
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range grid {
		for _, v := range row {
			if math.IsNaN(v) {
				continue
			}
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 1) {
		return "(no data)\n"
	}
	if hi == lo {
		hi = lo + 1
	}
	var b strings.Builder
	for r, row := range grid {
		for c, v := range row {
			if g, ok := marks[[2]int{r, c}]; ok {
				b.WriteByte(g)
				continue
			}
			if math.IsNaN(v) {
				b.WriteByte(' ')
				continue
			}
			idx := int((v - lo) / (hi - lo) * float64(len(heatRamp)-1))
			b.WriteByte(heatRamp[idx])
		}
		b.WriteByte('\n')
		_ = r
	}
	fmt.Fprintf(&b, "scale: '%c' = %s  ..  '%c' = %s\n",
		heatRamp[0], trimNum(lo), heatRamp[len(heatRamp)-1], trimNum(hi))
	return b.String()
}
