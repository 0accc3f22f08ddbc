package pawsdb

import (
	"math"
	"math/bits"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/spectrum"
)

// CellKey identifies one uniform grid cell. Cells are half-open
// squares [cx*size, (cx+1)*size) × [cy*size, (cy+1)*size).
type CellKey struct {
	CX, CY int32
}

// cellBucket lists the incumbents whose protection footprint overlaps
// one grid cell, plus the union of their channels as a bitmask so
// whole channels can be skipped without touching the incumbent list.
type cellBucket struct {
	incs []int32
	mask uint64
}

// maxFootprintCells caps how many cells per axis one incumbent's
// footprint may bucket into before it is moved to the global
// always-checked list (128 km at the default cell).
const maxFootprintCells = 64

// gridIndex is the immutable geospatial availability index inside a
// snapshot. Incumbents whose footprint would span more than
// maxFootprintCells cells per axis go to the global list (a
// blanket-coverage TV station protecting half a country would
// otherwise appear in millions of buckets); they are checked on every
// query, which degrades gracefully to the old linear scan when all
// incumbents are oversized.
type gridIndex struct {
	cellSize float64
	cells    map[CellKey]*cellBucket
	global   []int32
	incs     []spectrum.Incumbent

	first, last int // domain channel range
	centers     []float64
	widthHz     float64
}

// chanBit maps a channel number to its bit in availability masks.
// Both domains span at most 40 channels, so a uint64 covers the plan.
func (g *gridIndex) chanBit(ch int) uint64 {
	return 1 << uint(ch-g.first)
}

func buildIndex(reg *spectrum.Registry, cellSize float64) *gridIndex {
	first, last := reg.Domain.ChannelRange()
	g := &gridIndex{
		cellSize: cellSize,
		cells:    make(map[CellKey]*cellBucket),
		incs:     reg.Incumbents(),
		first:    first,
		last:     last,
		centers:  make([]float64, last-first+1),
		widthHz:  reg.Domain.ChannelWidthHz(),
	}
	for ch := first; ch <= last; ch++ {
		f, err := reg.Domain.CenterFreqHz(ch)
		if err != nil {
			// Unreachable for in-range channels; keep the linear
			// scan's behaviour (skip) if it ever happens.
			f = math.NaN()
		}
		g.centers[ch-first] = f
	}
	for i, inc := range g.incs {
		loCX := g.coord(inc.Location.X - inc.ProtectRadius)
		hiCX := g.coord(inc.Location.X + inc.ProtectRadius)
		loCY := g.coord(inc.Location.Y - inc.ProtectRadius)
		hiCY := g.coord(inc.Location.Y + inc.ProtectRadius)
		if int64(hiCX)-int64(loCX) >= maxFootprintCells || int64(hiCY)-int64(loCY) >= maxFootprintCells {
			g.global = append(g.global, int32(i))
			continue
		}
		bit := g.chanBit(inc.Channel)
		for cx := loCX; cx <= hiCX; cx++ {
			for cy := loCY; cy <= hiCY; cy++ {
				key := CellKey{cx, cy}
				b := g.cells[key]
				if b == nil {
					b = &cellBucket{}
					g.cells[key] = b
				}
				b.incs = append(b.incs, int32(i))
				b.mask |= bit
			}
		}
	}
	return g
}

func (g *gridIndex) coord(v float64) int32 {
	return int32(math.Floor(v / g.cellSize))
}

// CellOf returns the grid cell containing p.
func (g *gridIndex) cellOf(p geo.Point) CellKey {
	return CellKey{g.coord(p.X), g.coord(p.Y)}
}

func (g *gridIndex) cellRect(key CellKey) geo.Rect {
	return geo.Rect{
		MinX: float64(key.CX) * g.cellSize,
		MinY: float64(key.CY) * g.cellSize,
		MaxX: float64(key.CX+1) * g.cellSize,
		MaxY: float64(key.CY+1) * g.cellSize,
	}
}

// blockedAt returns the bitmask of channels an incumbent protects
// against use at (p, t), consulting only the query cell's bucket and
// the global list. Exactness: an incumbent with Dist(p) <= R has p
// inside its footprint square, so it was inserted into p's cell —
// pruned incumbents can never have protected p.
func (g *gridIndex) blockedAt(p geo.Point, t time.Time) uint64 {
	var blocked uint64
	for _, i := range g.global {
		inc := &g.incs[i]
		if blocked&g.chanBit(inc.Channel) == 0 && inc.Protects(p, t) {
			blocked |= g.chanBit(inc.Channel)
		}
	}
	if b := g.cells[g.cellOf(p)]; b != nil && b.mask&^blocked != 0 {
		for _, i := range b.incs {
			inc := &g.incs[i]
			if blocked&g.chanBit(inc.Channel) == 0 && inc.Protects(p, t) {
				blocked |= g.chanBit(inc.Channel)
			}
		}
	}
	return blocked
}

// uniformEps is the guard band for the cell-uniformity test: a
// protection boundary within eps of the cell is treated as crossing
// it, so floating-point rounding in distance computations can never
// make a cached cell-wide answer disagree with exact per-point
// evaluation.
func uniformEps(r float64) float64 { return r*1e-9 + 1e-6 }

// cellAnswer is the result of evaluating one cell for caching:
// blockedAtP is the exact answer for the query point; if uniform is
// true that answer holds for every point of the cell, valid from the
// query time until validUntil (zero = no schedule boundary ahead).
type cellAnswer struct {
	blockedAtP uint64
	uniform    bool
	validUntil time.Time
}

// evalCell computes the exact availability at p and, in the same pass,
// whether that answer is uniform across p's whole cell: every active
// candidate incumbent must either cover the cell entirely (its minimum
// distance to the farthest cell corner is within the protect radius)
// or miss it entirely. Candidates whose boundary crosses the cell make
// the answer non-uniform and thus uncacheable. validUntil is the
// earliest upcoming From/To schedule edge among all candidates —
// cached entries expire there because an incumbent switching on or
// off changes the answer without an incumbent-set mutation.
func (g *gridIndex) evalCell(key CellKey, p geo.Point, t time.Time) cellAnswer {
	ans := cellAnswer{uniform: true}
	rect := g.cellRect(key)
	scan := func(i int32) {
		inc := &g.incs[i]
		// Track the next activation/deactivation edge.
		if t.Before(inc.From) {
			ans.bound(inc.From)
		} else if !inc.To.IsZero() && t.Before(inc.To) {
			ans.bound(inc.To)
		}
		if !inc.ActiveAt(t) {
			return
		}
		bit := g.chanBit(inc.Channel)
		if inc.Location.Dist(p) <= inc.ProtectRadius {
			ans.blockedAtP |= bit
		}
		dmin, dmax := rectDistRange(rect, inc.Location)
		eps := uniformEps(inc.ProtectRadius)
		switch {
		case dmax <= inc.ProtectRadius-eps:
			// Covers the whole cell; blockedAtP already has the bit.
		case dmin > inc.ProtectRadius+eps:
			// Misses the whole cell.
		default:
			ans.uniform = false
		}
	}
	for _, i := range g.global {
		scan(i)
	}
	if b := g.cells[key]; b != nil {
		for _, i := range b.incs {
			scan(i)
		}
	}
	return ans
}

func (a *cellAnswer) bound(t time.Time) {
	if a.validUntil.IsZero() || t.Before(a.validUntil) {
		a.validUntil = t
	}
}

// rectDistRange returns the minimum and maximum distance from c to any
// point of the closed rectangle r.
func rectDistRange(r geo.Rect, c geo.Point) (dmin, dmax float64) {
	dx := math.Max(math.Max(r.MinX-c.X, 0), c.X-r.MaxX)
	dy := math.Max(math.Max(r.MinY-c.Y, 0), c.Y-r.MaxY)
	dmin = math.Hypot(dx, dy)
	fx := math.Max(c.X-r.MinX, r.MaxX-c.X)
	fy := math.Max(c.Y-r.MinY, r.MaxY-c.Y)
	dmax = math.Hypot(fx, fy)
	return dmin, dmax
}

// materialize expands a blocked-channel mask into the ChannelInfo
// slice the registry's linear scan would have produced: ascending
// channel order, per-query power cap and lease expiry, nil when
// nothing is available.
func (g *gridIndex) materialize(blocked uint64, maxEIRPdBm float64, until time.Time) []spectrum.ChannelInfo {
	n := len(g.centers)
	free := n - bits.OnesCount64(blocked&((1<<uint(n))-1))
	if free == 0 {
		return nil
	}
	out := make([]spectrum.ChannelInfo, 0, free)
	for i := 0; i < n; i++ {
		if blocked&(1<<uint(i)) != 0 || math.IsNaN(g.centers[i]) {
			continue
		}
		out = append(out, spectrum.ChannelInfo{
			Channel:      g.first + i,
			CenterFreqHz: g.centers[i],
			WidthHz:      g.widthHz,
			MaxEIRPdBm:   maxEIRPdBm,
			Until:        until,
		})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
