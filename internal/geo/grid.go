package geo

import (
	"math"
	"slices"
)

// Grid is a uniform spatial index over a rectangular region: node IDs
// are bucketed by position so that "every node within radius r of p"
// is answered by scanning only the buckets the disk overlaps, instead
// of every node in the world. This is the structure that turns the
// interference hot paths (metro's adjacency rows, netsim's PRACH
// census, handover sweep and conflict edges) from O(N) per query into
// O(neighborhood).
//
// The bucket side is normally the query radius — the interference-
// significance radius, see DESIGN.md — so a
// radius-r query touches at most a 3x3 block of buckets. Queries with
// other radii remain correct (the covered bucket range is computed per
// call); only the constant factor moves.
//
// Determinism: AppendWithin returns IDs in ascending order, which is
// exactly the order a brute-force scan over a dense node slice visits
// them. Downstream float accumulations (interference denominators)
// therefore sum in the same order as the reference scan and stay
// bit-identical to it.
//
// Mobility: Move rebuckets a node in O(1) (plus the bucket-list edit).
// Callers that also cache link budgets must still refresh them
// (netsim.refreshLinkBudget, metro.rebuildRow) — the grid only answers
// "who is near", never "how loud".
//
// The query path is allocation-free once the caller's scratch slice
// has grown to the neighborhood size (TestGridAppendWithinZeroAllocs).
type Grid struct {
	bounds   Rect
	cellSize float64
	nx, ny   int
	buckets  [][]int32
	pos      []Point // by ID
	bucket   []int32 // by ID; -1 = not present
	count    int
}

// maxGridBuckets bounds the bucket table so a tiny cell size over a
// huge region cannot blow memory; the cell side is raised until the
// table fits. Queries stay correct — only bucket occupancy grows.
const maxGridBuckets = 1 << 20

// NewGrid builds an empty index over bounds with the given bucket
// side. A non-positive cell size, or one that would exceed the bucket
// budget, is raised to fit. Positions outside bounds are legal: they
// clamp into the border buckets, and the per-node distance check keeps
// query answers exact.
func NewGrid(bounds Rect, cellSize float64) *Grid {
	w, h := bounds.Width(), bounds.Height()
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	if cellSize <= 0 {
		cellSize = math.Max(w, h)
	}
	nx := int(math.Ceil(w / cellSize))
	ny := int(math.Ceil(h / cellSize))
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	for nx*ny > maxGridBuckets {
		cellSize *= 2
		nx = (nx + 1) / 2
		ny = (ny + 1) / 2
	}
	return &Grid{
		bounds:   bounds,
		cellSize: cellSize,
		nx:       nx,
		ny:       ny,
		buckets:  make([][]int32, nx*ny),
	}
}

// Len returns the number of indexed nodes.
func (g *Grid) Len() int { return g.count }

// cellIndex maps a point to its bucket, clamping out-of-bounds
// coordinates into the border row/column.
func (g *Grid) cellIndex(p Point) int32 {
	cx := int((p.X - g.bounds.MinX) / g.cellSize)
	cy := int((p.Y - g.bounds.MinY) / g.cellSize)
	if cx < 0 {
		cx = 0
	} else if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.ny {
		cy = g.ny - 1
	}
	return int32(cy*g.nx + cx)
}

// Insert adds id at p. Inserting an id twice panics — use Move.
func (g *Grid) Insert(id int32, p Point) {
	for int(id) >= len(g.bucket) {
		g.bucket = append(g.bucket, -1)
		g.pos = append(g.pos, Point{})
	}
	if g.bucket[id] >= 0 {
		panic("geo: Grid.Insert of an id already present")
	}
	b := g.cellIndex(p)
	g.pos[id] = p
	g.bucket[id] = b
	g.buckets[b] = append(g.buckets[b], id)
	g.count++
}

// Move updates id's position, rebucketing only when the node crossed a
// bucket border — the incremental path mobility steps take every epoch.
func (g *Grid) Move(id int32, p Point) {
	if int(id) >= len(g.bucket) || g.bucket[id] < 0 {
		panic("geo: Grid.Move on unindexed id")
	}
	g.pos[id] = p
	old := g.bucket[id]
	b := g.cellIndex(p)
	if b == old {
		return
	}
	g.removeFromBucket(old, id)
	g.bucket[id] = b
	g.buckets[b] = append(g.buckets[b], id)
}

func (g *Grid) removeFromBucket(b, id int32) {
	lst := g.buckets[b]
	for i, v := range lst {
		if v == id {
			lst[i] = lst[len(lst)-1]
			g.buckets[b] = lst[:len(lst)-1]
			return
		}
	}
	panic("geo: Grid bucket table corrupt")
}

// AppendWithin appends every indexed id whose position lies within
// radius of p (inclusive) to dst and returns the extended slice, in
// ascending id order. It never allocates once dst's capacity covers
// the neighborhood; pass dst[:0] of a reused scratch slice on hot
// paths.
func (g *Grid) AppendWithin(dst []int32, p Point, radius float64) []int32 {
	if radius < 0 {
		return dst
	}
	cx0 := int((p.X - radius - g.bounds.MinX) / g.cellSize)
	cx1 := int((p.X + radius - g.bounds.MinX) / g.cellSize)
	cy0 := int((p.Y - radius - g.bounds.MinY) / g.cellSize)
	cy1 := int((p.Y + radius - g.bounds.MinY) / g.cellSize)
	// Clamp both ends into the table (out-of-bounds nodes live clamped
	// in the border buckets, so a fully out-of-range query must still
	// scan the border).
	cx0, cx1 = clampRange(cx0, cx1, g.nx)
	cy0, cy1 = clampRange(cy0, cy1, g.ny)
	start := len(dst)
	r2 := radius * radius
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * g.nx
		for cx := cx0; cx <= cx1; cx++ {
			for _, id := range g.buckets[row+cx] {
				q := g.pos[id]
				dx, dy := q.X-p.X, q.Y-p.Y
				if dx*dx+dy*dy <= r2 {
					dst = append(dst, id)
				}
			}
		}
	}
	// Bucket iteration order is spatial, not by id; restore the
	// ascending-id order brute-force scans produce so downstream float
	// sums are bit-identical to the reference path.
	slices.Sort(dst[start:])
	return dst
}

// clampRange clamps the inclusive bucket range [lo, hi] into [0, n).
func clampRange(lo, hi, n int) (int, int) {
	if lo < 0 {
		lo = 0
	} else if lo >= n {
		lo = n - 1
	}
	if hi < 0 {
		hi = 0
	} else if hi >= n {
		hi = n - 1
	}
	return lo, hi
}
