package propagation

import (
	"testing"

	"cellfi/internal/geo"
)

func TestLinkCacheReturnsModelValues(t *testing.T) {
	m := DefaultUrban(7)
	c := NewLinkCache(m, 8)
	a, b := geo.Point{X: 0, Y: 0}, geo.Point{X: 310, Y: 120}
	want := m.LinkLossDB(a, b)
	for i := 0; i < 3; i++ {
		if got := c.LossDB(1, 2, a, b); got != want {
			t.Fatalf("cached loss = %v, want exact model value %v", got, want)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss then 2 hits", st)
	}
}

func TestLinkCacheDirectedKeys(t *testing.T) {
	m := DefaultUrban(3)
	c := NewLinkCache(m, 8)
	a, b := geo.Point{X: 0}, geo.Point{X: 500}
	// (1,2) and (2,1) are distinct keys; both must return the model's
	// value for the positions given (symmetric here).
	l1 := c.LossDB(1, 2, a, b)
	l2 := c.LossDB(2, 1, b, a)
	if l1 != l2 {
		t.Fatalf("symmetric link cached asymmetrically: %v vs %v", l1, l2)
	}
	if c.Stats().Misses != 2 {
		t.Fatalf("directed pairs should miss separately, stats = %+v", c.Stats())
	}
}

func TestLinkCacheInvalidate(t *testing.T) {
	m := DefaultUrban(5)
	c := NewLinkCache(m, 4)
	a, old := geo.Point{X: 0}, geo.Point{X: 200}
	moved := geo.Point{X: 900}

	stale := c.LossDB(0, 1, a, old)
	// Without invalidation the cache would keep serving the old value
	// even for new positions — that is the documented contract.
	if got := c.LossDB(0, 1, a, moved); got != stale {
		t.Fatalf("cache recomputed without invalidation: %v vs %v", got, stale)
	}

	c.Invalidate(1)
	want := m.LinkLossDB(a, moved)
	if got := c.LossDB(0, 1, a, moved); got != want {
		t.Fatalf("post-invalidate loss = %v, want %v", got, want)
	}
	// Links not touching node 1 survive invalidation.
	c.LossDB(0, 2, a, old)
	h0 := c.Stats().Hits
	c.LossDB(0, 2, a, old)
	if c.Stats().Hits != h0+1 {
		t.Fatal("unrelated link was invalidated")
	}
}

func TestLinkCacheGrowsEpochTable(t *testing.T) {
	m := DefaultUrban(1)
	c := NewLinkCache(m, 0)
	a, b := geo.Point{X: 0}, geo.Point{X: 50}
	c.LossDB(1000, 2000, a, b) // IDs beyond the initial table
	c.Invalidate(5000)
	if got := c.LossDB(1000, 2000, a, b); got != m.LinkLossDB(a, b) {
		t.Fatalf("grown-table lookup wrong: %v", got)
	}
}

func BenchmarkLinkLossUncached(b *testing.B) {
	m := DefaultUrban(1)
	a, p := geo.Point{X: 0}, geo.Point{X: 400, Y: 300}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.LinkLossDB(a, p)
	}
}

func BenchmarkLinkLossCached(b *testing.B) {
	c := NewLinkCache(DefaultUrban(1), 8)
	a, p := geo.Point{X: 0}, geo.Point{X: 400, Y: 300}
	c.LossDB(0, 1, a, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.LossDB(0, 1, a, p)
	}
}
