package geo

import (
	"math/rand"
	"testing"
)

// bruteWithin is the reference neighborhood query: a full scan over a
// dense position slice with the same inclusive distance test the grid
// uses, visiting ids in ascending order.
func bruteWithin(pos []Point, p Point, radius float64) []int32 {
	var out []int32
	r2 := radius * radius
	for id, q := range pos {
		dx, dy := q.X-p.X, q.Y-p.Y
		if dx*dx+dy*dy <= r2 {
			out = append(out, int32(id))
		}
	}
	return out
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	area := Square(2000)
	g := NewGrid(area, 250)
	pos := area.RandomPoints(rng, 500)
	for id, p := range pos {
		g.Insert(int32(id), p)
	}
	var scratch []int32
	for _, radius := range []float64{0, 50, 250, 650, 3000} {
		for i := 0; i < 200; i++ {
			q := area.RandomPoint(rng)
			scratch = g.AppendWithin(scratch[:0], q, radius)
			want := bruteWithin(pos, q, radius)
			if !equalIDs(scratch, want) {
				t.Fatalf("radius %g query %v: grid %v != brute %v", radius, q, scratch, want)
			}
		}
	}
}

func TestGridOutOfBoundsNodes(t *testing.T) {
	// Nodes outside the declared bounds clamp into border buckets but
	// must still be found by queries (including queries whose disk lies
	// entirely outside the bounds).
	g := NewGrid(Square(1000), 100)
	pos := []Point{{-500, -500}, {1500, 500}, {500, 500}, {-50, 2000}}
	for id, p := range pos {
		g.Insert(int32(id), p)
	}
	for _, q := range []Point{{-500, -500}, {-480, -510}, {1490, 505}, {500, 500}, {-60, 1990}} {
		got := g.AppendWithin(nil, q, 100)
		want := bruteWithin(pos, q, 100)
		if !equalIDs(got, want) {
			t.Fatalf("query %v: grid %v != brute %v", q, got, want)
		}
	}
}

func TestGridMoveRebuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	area := Square(2000)
	g := NewGrid(area, 200)
	pos := area.RandomPoints(rng, 300)
	for id, p := range pos {
		g.Insert(int32(id), p)
	}
	// Random-walk every node across many epochs, checking queries stay
	// exact after incremental Move updates.
	var scratch []int32
	for step := 0; step < 20; step++ {
		for id := range pos {
			pos[id] = pos[id].Add(rng.Float64()*400-200, rng.Float64()*400-200)
			g.Move(int32(id), pos[id])
		}
		q := area.RandomPoint(rng)
		scratch = g.AppendWithin(scratch[:0], q, 300)
		if want := bruteWithin(pos, q, 300); !equalIDs(scratch, want) {
			t.Fatalf("step %d: grid %v != brute %v", step, scratch, want)
		}
	}
	if g.Len() != len(pos) {
		t.Fatalf("Len = %d after moves, want %d", g.Len(), len(pos))
	}
}

func TestGridDuplicateInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate Insert")
		}
	}()
	g := NewGrid(Square(100), 10)
	g.Insert(3, Point{1, 1})
	g.Insert(3, Point{2, 2})
}

func TestGridBucketBudget(t *testing.T) {
	// A degenerate cell size over a huge region must not blow memory;
	// the effective cell side grows to fit and queries stay exact.
	g := NewGrid(Rect{0, 0, 1e7, 1e7}, 0.001)
	if nb := g.nx * g.ny; nb > maxGridBuckets {
		t.Fatalf("bucket table has %d buckets, budget %d", nb, maxGridBuckets)
	}
	pos := []Point{{1, 1}, {2, 2}, {9e6, 9e6}}
	for id, p := range pos {
		g.Insert(int32(id), p)
	}
	got := g.AppendWithin(nil, Point{0, 0}, 5)
	if !equalIDs(got, []int32{0, 1}) {
		t.Fatalf("query = %v, want [0 1]", got)
	}
}

// The neighborhood query is the inner loop of every indexed
// interference scan; it must not allocate once the scratch slice has
// warmed to the neighborhood size.
func TestGridAppendWithinZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	area := Square(2000)
	g := NewGrid(area, 650)
	for id := 0; id < 2000; id++ {
		g.Insert(int32(id), area.RandomPoint(rng))
	}
	queries := area.RandomPoints(rng, 64)
	scratch := make([]int32, 0, 2048)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		scratch = g.AppendWithin(scratch[:0], queries[i%len(queries)], 650)
		i++
	})
	if allocs != 0 {
		t.Fatalf("AppendWithin allocates %.1f allocs/op, want 0", allocs)
	}
}

// minSpacedPointsRef is the pre-grid implementation, kept verbatim as
// the behavioral reference: MinSpacedPoints must consume the same rng
// draws and return the same points.
func minSpacedPointsRef(rng *rand.Rand, r Rect, n int, minSpacing float64) []Point {
	pts := make([]Point, 0, n)
	spacing := minSpacing
	attempts := 0
	for len(pts) < n {
		p := r.RandomPoint(rng)
		ok := true
		for _, q := range pts {
			if p.Dist(q) < spacing {
				ok = false
				break
			}
		}
		if ok {
			pts = append(pts, p)
			attempts = 0
			continue
		}
		attempts++
		if attempts > 200 {
			spacing *= 0.8
			attempts = 0
		}
	}
	return pts
}

func TestMinSpacedPointsMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, tc := range []struct {
			n       int
			spacing float64
			side    float64
		}{
			{14, 300, 2000},  // the paper topology
			{50, 1000, 1000}, // infeasible: exercises relaxation
			{200, 50, 2000},
			{30, 0, 500}, // unconstrained
		} {
			got := MinSpacedPoints(rand.New(rand.NewSource(seed)), Square(tc.side), tc.n, tc.spacing)
			want := minSpacedPointsRef(rand.New(rand.NewSource(seed)), Square(tc.side), tc.n, tc.spacing)
			if len(got) != len(want) {
				t.Fatalf("seed %d %+v: %d points, reference %d", seed, tc, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d %+v: point %d = %v, reference %v", seed, tc, i, got[i], want[i])
				}
			}
		}
	}
}

// Metro-scale placement: 10k APs with a feasible-but-tight spacing.
// The naive scan's rejection sampling was quadratic here (every dart
// checked against every accepted point); the grid keeps each check
// local, so this completes in well under a second.
func TestMinSpacedPoints10k(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	area := Square(10000)
	const n, spacing = 10000, 70.0
	pts := MinSpacedPoints(rng, area, n, spacing)
	if len(pts) != n {
		t.Fatalf("placed %d points, want %d", len(pts), n)
	}
	// Spot-check the spacing invariant through an independent grid.
	g := NewGrid(area, spacing)
	for id, p := range pts {
		g.Insert(int32(id), p)
	}
	var scratch []int32
	for id, p := range pts {
		scratch = g.AppendWithin(scratch[:0], p, spacing*0.999)
		for _, other := range scratch {
			if int(other) != id {
				t.Fatalf("points %d and %d closer than spacing", id, other)
			}
		}
	}
}

func BenchmarkGridAppendWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	area := Square(8000)
	g := NewGrid(area, 650)
	for id := 0; id < 2000; id++ {
		g.Insert(int32(id), area.RandomPoint(rng))
	}
	queries := area.RandomPoints(rng, 256)
	scratch := make([]int32, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = g.AppendWithin(scratch[:0], queries[i%len(queries)], 650)
	}
}

func BenchmarkMinSpacedPoints10k(b *testing.B) {
	area := Square(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		MinSpacedPoints(rng, area, 10000, 70)
	}
}
