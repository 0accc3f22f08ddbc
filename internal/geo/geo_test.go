package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-2, 0}, Point{2, 0}, 4},
		{Point{0, -1.5}, Point{0, 1.5}, 3},
	}
	for _, c := range cases {
		if got := c.a.Dist(c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := Square(1000)
	for i := 0; i < 500; i++ {
		a, b, c := r.RandomPoint(rng), r.RandomPoint(rng), r.RandomPoint(rng)
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestBearing(t *testing.T) {
	p := Point{0, 0}
	cases := []struct {
		q    Point
		want float64
	}{
		{Point{1, 0}, 0},
		{Point{0, 1}, math.Pi / 2},
		{Point{-1, 0}, math.Pi},
		{Point{0, -1}, -math.Pi / 2},
	}
	for _, c := range cases {
		if got := p.Bearing(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Bearing to %v = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 20}
	for _, p := range []Point{{0, 0}, {10, 20}, {5, 5}} {
		if !r.Contains(p) {
			t.Errorf("expected %v inside %v", p, r)
		}
	}
	for _, p := range []Point{{-0.1, 5}, {10.1, 5}, {5, -1}, {5, 20.5}} {
		if r.Contains(p) {
			t.Errorf("expected %v outside %v", p, r)
		}
	}
}

func TestRectCenterAndDims(t *testing.T) {
	r := Rect{10, 20, 30, 60}
	if c := r.Center(); c != (Point{20, 40}) {
		t.Errorf("Center = %v", c)
	}
	if r.Width() != 20 || r.Height() != 40 {
		t.Errorf("dims = %g x %g", r.Width(), r.Height())
	}
}

func TestRandomPointsInside(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := Square(2000)
	for _, p := range r.RandomPoints(rng, 1000) {
		if !r.Contains(p) {
			t.Fatalf("point %v outside region", p)
		}
	}
}

func TestRandomPointsUniformQuadrants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := Square(100)
	var q [4]int
	const n = 8000
	for _, p := range r.RandomPoints(rng, n) {
		i := 0
		if p.X > 50 {
			i |= 1
		}
		if p.Y > 50 {
			i |= 2
		}
		q[i]++
	}
	for i, c := range q {
		if c < n/4-300 || c > n/4+300 {
			t.Errorf("quadrant %d has %d of %d points; not uniform", i, c, n)
		}
	}
}

// A ring with inner radius 0 is a disk: samples must be uniform over
// its area.
func TestRandomPointInDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := Point{500, 500}
	const radius = 120.0
	inner := 0
	const n = 4000
	for i := 0; i < n; i++ {
		p := RandomPointInRing(rng, c, 0, radius, nil)
		d := c.Dist(p)
		if d > radius+1e-9 {
			t.Fatalf("point %v outside disk (d=%g)", p, d)
		}
		if d < radius/math.Sqrt2 {
			inner++
		}
	}
	// Half the area lies within R/sqrt(2); expect ~n/2.
	if inner < n/2-250 || inner > n/2+250 {
		t.Errorf("inner-half count %d of %d; disk sampling not uniform", inner, n)
	}
}

func TestRandomPointInDiskClipped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := Square(1000)
	c := Point{10, 10} // near corner: most of the disk is outside
	for i := 0; i < 500; i++ {
		p := RandomPointInRing(rng, c, 0, 300, &r)
		if !r.Contains(p) {
			t.Fatalf("clipped point %v escaped region", p)
		}
	}
}

func TestRandomPointInRing(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := Point{0, 0}
	for i := 0; i < 2000; i++ {
		p := RandomPointInRing(rng, c, 50, 100, nil)
		d := c.Dist(p)
		if d < 50-1e-9 || d > 100+1e-9 {
			t.Fatalf("ring point at distance %g outside [50,100]", d)
		}
	}
}

func TestRandomPointInRingBadRadii(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for max < min")
		}
	}()
	RandomPointInRing(rand.New(rand.NewSource(1)), Point{}, 10, 5, nil)
}

func TestMinSpacedPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := Square(2000)
	pts := MinSpacedPoints(rng, r, 14, 300)
	if len(pts) != 14 {
		t.Fatalf("placed %d points, want 14", len(pts))
	}
	for i := range pts {
		if !r.Contains(pts[i]) {
			t.Fatalf("point %v outside region", pts[i])
		}
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist(pts[j]) < 300 {
				t.Fatalf("points %v and %v closer than spacing", pts[i], pts[j])
			}
		}
	}
}

func TestMinSpacedPointsRelaxes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// 50 points with 1km spacing cannot fit in 1km square: must relax
	// rather than loop forever.
	pts := MinSpacedPoints(rng, Square(1000), 50, 1000)
	if len(pts) != 50 {
		t.Fatalf("placed %d points, want 50", len(pts))
	}
}

func BenchmarkDist(b *testing.B) {
	p, q := Point{1, 2}, Point{300, 400}
	for i := 0; i < b.N; i++ {
		_ = p.Dist(q)
	}
}
