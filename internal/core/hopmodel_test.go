package core

import (
	"math"
	"math/rand"
	"testing"

	"cellfi/internal/netgraph"
)

// assignment lists each vertex's held subchannels for netgraph.Valid.
func assignment(h *HopModel) netgraph.Assignment {
	a := make(netgraph.Assignment, len(h.held))
	for v, held := range h.held {
		for k := range held {
			a[v] = append(a[v], k)
		}
	}
	return a
}

func randomFeasibleGraph(rng *rand.Rand, n, m int, edgeProb float64) *netgraph.Graph {
	g := netgraph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < edgeProb {
				g.AddEdge(i, j)
			}
		}
	}
	for v := 0; v < n; v++ {
		g.Demand[v] = 1 + rng.Intn(2)
	}
	// Enforce the Demand Assumption with slack: every neighbourhood
	// fits in (1-gamma)M with gamma >= ~0.2.
	budget := int(0.8 * float64(m))
	for v := 0; v < n; v++ {
		for g.NeighborhoodDemand(v) > budget {
			maxU, maxD := v, g.Demand[v]
			for _, u := range g.Neighbors(v) {
				if g.Demand[u] > maxD {
					maxU, maxD = u, g.Demand[u]
				}
			}
			if g.Demand[maxU] <= 1 {
				g.Demand[maxU] = 1
				break
			}
			g.Demand[maxU]--
		}
	}
	return g
}

func TestHopModelConvergesNoFading(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := randomFeasibleGraph(rng, 10, 13, 0.3)
		h := NewHopModel(g, 13, 0, rng)
		rounds, ok := h.RunToConvergence(2000)
		if !ok {
			t.Fatalf("trial %d did not converge (gamma=%g)", trial, g.Gamma(13))
		}
		if err := g.Valid(assignment(h), 13); err != nil {
			t.Fatalf("trial %d converged to invalid state: %v", trial, err)
		}
		_ = rounds
	}
}

func TestHopModelConvergesWithFading(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := randomFeasibleGraph(rng, 8, 13, 0.3)
		h := NewHopModel(g, 13, 0.3, rng)
		if _, ok := h.RunToConvergence(5000); !ok {
			t.Fatalf("trial %d did not converge under fading", trial)
		}
		if err := g.Valid(assignment(h), 13); err != nil {
			t.Fatal(err)
		}
	}
}

// Theorem 1's scaling: convergence time grows when fading worsens
// ((1-p) in the denominator). Compare mean rounds at p=0 vs p=0.6.
func TestHopModelFadingSlowsConvergence(t *testing.T) {
	mean := func(p float64, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		var sum float64
		const trials = 40
		for i := 0; i < trials; i++ {
			g := randomFeasibleGraph(rng, 8, 13, 0.35)
			h := NewHopModel(g, 13, p, rng)
			r, ok := h.RunToConvergence(10000)
			if !ok {
				t.Fatal("non-convergence during scaling test")
			}
			sum += float64(r)
		}
		return sum / trials
	}
	fast := mean(0, 3)
	slow := mean(0.6, 4)
	if slow <= fast {
		t.Fatalf("fading p=0.6 converged faster (%.1f) than p=0 (%.1f)", slow, fast)
	}
}

// Theorem 1's O(log n) dependence: doubling n far less than doubles
// convergence time on sparse graphs with fixed gamma. We check
// sub-linearity: rounds(n=24) < 2 * rounds(n=6) despite 4x the nodes.
func TestHopModelLogNScaling(t *testing.T) {
	mean := func(n int, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		var sum float64
		const trials = 30
		for i := 0; i < trials; i++ {
			g := randomFeasibleGraph(rng, n, 13, 3.0/float64(n)) // constant avg degree
			h := NewHopModel(g, 13, 0.2, rng)
			r, ok := h.RunToConvergence(20000)
			if !ok {
				t.Fatal("non-convergence during scaling test")
			}
			sum += float64(r)
		}
		return sum / trials
	}
	small := mean(6, 5)
	big := mean(24, 6)
	if big > 2*small+2 {
		t.Fatalf("rounds grew superlinearly: n=6 -> %.1f, n=24 -> %.1f", small, big)
	}
}

// Converged nodes stop moving: the process is absorbing.
func TestHopModelAbsorbing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomFeasibleGraph(rng, 8, 13, 0.3)
	h := NewHopModel(g, 13, 0.1, rng)
	if _, ok := h.RunToConvergence(5000); !ok {
		t.Fatal("did not converge")
	}
	before := assignment(h)
	for i := 0; i < 50; i++ {
		h.Round()
	}
	after := assignment(h)
	for v := range before {
		if len(before[v]) != len(after[v]) {
			t.Fatalf("vertex %d changed after convergence", v)
		}
		set := map[int]bool{}
		for _, k := range before[v] {
			set[k] = true
		}
		for _, k := range after[v] {
			if !set[k] {
				t.Fatalf("vertex %d hopped after convergence", v)
			}
		}
	}
}

// Expected convergence bound sanity: with gamma >= 0.2 and p = 0, mean
// rounds should sit well under the Theorem 1 ceiling M*log(n)/gamma.
func TestHopModelWithinTheoremBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, m = 12, 13
	bound := float64(m) * math.Log(float64(n)) / 0.2 * 5 // generous constant
	var worst float64
	for trial := 0; trial < 30; trial++ {
		g := randomFeasibleGraph(rng, n, m, 0.3)
		h := NewHopModel(g, m, 0, rng)
		r, ok := h.RunToConvergence(int(bound) * 10)
		if !ok {
			t.Fatal("did not converge")
		}
		if float64(r) > worst {
			worst = float64(r)
		}
	}
	if worst > bound {
		t.Fatalf("worst convergence %g rounds exceeds theorem-scale bound %g", worst, bound)
	}
}

func BenchmarkHopModelConvergence(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		g := randomFeasibleGraph(rng, 14, 13, 0.3)
		h := NewHopModel(g, 13, 0.2, rng)
		if _, ok := h.RunToConvergence(10000); !ok {
			b.Fatal("non-convergence")
		}
	}
}
