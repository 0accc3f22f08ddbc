package topo

import (
	"testing"

	"cellfi/internal/geo"
)

func TestGenerateShape(t *testing.T) {
	p := Paper(14, 6)
	tp := Generate(p, 1)
	if len(tp.APs) != 14 {
		t.Fatalf("APs = %d", len(tp.APs))
	}
	clients := 0
	for _, cs := range tp.Clients {
		clients += len(cs)
	}
	if clients != 84 {
		t.Fatalf("clients = %d, want 84", clients)
	}
	area := geo.Square(p.AreaSide)
	for i, ap := range tp.APs {
		if !area.Contains(ap) {
			t.Fatalf("AP %d outside area", i)
		}
		for j, c := range tp.Clients[i] {
			if !area.Contains(c) {
				t.Fatalf("client %d/%d outside area", i, j)
			}
			d := ap.Dist(c)
			if d < p.MinClientDist-1e-9 || d > p.CellRadius+1e-9 {
				t.Fatalf("client %d/%d at distance %g outside [%g, %g]",
					i, j, d, p.MinClientDist, p.CellRadius)
			}
		}
	}
	// AP spacing respected.
	for i := range tp.APs {
		for j := i + 1; j < len(tp.APs); j++ {
			if tp.APs[i].Dist(tp.APs[j]) < p.MinAPSpacing {
				t.Fatalf("APs %d and %d too close", i, j)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Paper(8, 6), 42)
	b := Generate(Paper(8, 6), 42)
	for i := range a.APs {
		if a.APs[i] != b.APs[i] {
			t.Fatal("same seed produced different AP placement")
		}
	}
	c := Generate(Paper(8, 6), 43)
	same := true
	for i := range a.APs {
		if a.APs[i] != c.APs[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical placement")
	}
}
