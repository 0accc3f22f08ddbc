// Package geo provides the 2-D geometry used by CellFi topologies:
// points, distances, rectangular deployment regions and random placement.
// All coordinates are in metres.
package geo

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a location in the deployment plane, in metres.
type Point struct {
	X, Y float64
}

// String formats the point as "(x, y)" with metre precision.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Dist returns the Euclidean distance to q in metres.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

// Bearing returns the angle from p to q in radians, in [-pi, pi].
func (p Point) Bearing(q Point) float64 {
	return math.Atan2(q.Y-p.Y, q.X-p.X)
}

// Rect is an axis-aligned deployment region.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Square returns a side×side region anchored at the origin.
func Square(side float64) Rect { return Rect{0, 0, side, side} }

// Width and Height return the region dimensions.
func (r Rect) Width() float64  { return r.MaxX - r.MinX }
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Contains reports whether p lies inside (or on the border of) r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Center returns the midpoint of the region.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// RandomPoint returns a uniformly distributed point inside r.
func (r Rect) RandomPoint(rng *rand.Rand) Point {
	return Point{
		X: r.MinX + rng.Float64()*r.Width(),
		Y: r.MinY + rng.Float64()*r.Height(),
	}
}

// RandomPoints returns n independent uniform points inside r.
func (r Rect) RandomPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = r.RandomPoint(rng)
	}
	return pts
}

// RandomPointInRing returns a point uniform over the annulus
// [minRadius, maxRadius] around c, clipped to r if clip is non-nil.
func RandomPointInRing(rng *rand.Rand, c Point, minRadius, maxRadius float64, clip *Rect) Point {
	if minRadius < 0 || maxRadius < minRadius {
		panic("geo: invalid ring radii")
	}
	for {
		// Uniform over annulus: r^2 uniform on [min^2, max^2].
		r2 := minRadius*minRadius + rng.Float64()*(maxRadius*maxRadius-minRadius*minRadius)
		rr := math.Sqrt(r2)
		th := rng.Float64() * 2 * math.Pi
		p := Point{c.X + rr*math.Cos(th), c.Y + rr*math.Sin(th)}
		if clip == nil || clip.Contains(p) {
			return p
		}
	}
}

// MinSpacedPoints places n points uniformly in r subject to a minimum
// pairwise spacing, using dart throwing with a bounded number of
// attempts. If the spacing cannot be met it is relaxed geometrically so
// the function always terminates.
//
// The spacing check runs on a Grid bucketed at the requested spacing,
// so each candidate is tested against its local neighborhood only.
// The naive form compared every candidate against every accepted
// point — O(n^2) at best, and far worse once the region crowds up and
// the rejection rate climbs — which made metro-scale AP counts
// (n = 10k+) quadratic in practice. Accept/reject decisions (and so
// the returned points and rng consumption) are identical to the naive
// scan's: the grid query over-approximates by a hair of floating-point
// margin and the exact Dist test makes the call.
func MinSpacedPoints(rng *rand.Rand, r Rect, n int, minSpacing float64) []Point {
	pts := make([]Point, 0, n)
	if n <= 0 {
		return pts
	}
	if minSpacing <= 0 {
		// No constraint: every dart lands.
		return append(pts, r.RandomPoints(rng, n)...)
	}
	g := NewGrid(r, minSpacing)
	var scratch []int32
	spacing := minSpacing
	attempts := 0
	for len(pts) < n {
		p := r.RandomPoint(rng)
		// The grid query inflates the radius by a few ulps so no point
		// the exact Hypot-based test would reject can slip through the
		// squared-distance bucket filter.
		scratch = g.AppendWithin(scratch[:0], p, spacing*(1+1e-9))
		ok := true
		for _, id := range scratch {
			if p.Dist(pts[id]) < spacing {
				ok = false
				break
			}
		}
		if ok {
			g.Insert(int32(len(pts)), p)
			pts = append(pts, p)
			attempts = 0
			continue
		}
		attempts++
		if attempts > 200 {
			spacing *= 0.8 // relax; region too crowded for requested spacing
			attempts = 0
		}
	}
	return pts
}
