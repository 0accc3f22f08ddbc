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
	if len(c.entries) != 1 {
		t.Fatalf("%d entries after three lookups of one link, want 1", len(c.entries))
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
	if len(c.entries) != 2 {
		t.Fatalf("directed pairs should be cached separately, %d entries", len(c.entries))
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
