package netgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestBasicsAndSelfLoop(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 1) // ignored
	if !g.adj[0][1] || !g.adj[1][0] {
		t.Fatal("edge not symmetric")
	}
	if g.adj[1][1] {
		t.Fatal("self-loop recorded")
	}
	if g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(1), g.Degree(2))
	}
	if got := g.Neighbors(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Neighbors(0) = %v", got)
	}
}

func TestNeighborhoodDemand(t *testing.T) {
	g := line(4)
	g.Demand = []int{1, 2, 3, 4}
	// Vertex 1 sees itself + vertices 0 and 2: 2+1+3 = 6.
	if got := g.NeighborhoodDemand(1); got != 6 {
		t.Fatalf("NeighborhoodDemand(1) = %d, want 6", got)
	}
	if got := g.NeighborhoodDemand(3); got != 7 {
		t.Fatalf("NeighborhoodDemand(3) = %d, want 7", got)
	}
	if got := g.NeighborhoodDemand(2); got != 9 { // 2+3+4
		t.Fatalf("NeighborhoodDemand(2) = %d, want 9", got)
	}
}

func TestGamma(t *testing.T) {
	g := line(3)
	g.Demand = []int{4, 4, 4}
	// Worst neighbourhood is vertex 1 with 12 demand; with M=16,
	// gamma = 1 - 12/16 = 0.25.
	if got := g.Gamma(16); got != 0.25 {
		t.Fatalf("Gamma = %g, want 0.25", got)
	}
	// Infeasible: gamma <= 0.
	if got := g.Gamma(12); got > 0 {
		t.Fatalf("Gamma at the boundary = %g, want 0", got)
	}
}

func TestGreedyColorLine(t *testing.T) {
	g := line(5)
	g.Demand = []int{3, 3, 3, 3, 3}
	// A line needs at most demand(v)+demands of two neighbours = 9.
	a, ok := g.GreedyColor(9)
	if !ok {
		t.Fatal("greedy failed on a feasible line")
	}
	if err := g.Valid(a, 9); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyColorClique(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j)
		}
	}
	g.Demand = []int{3, 3, 3, 4}
	a, ok := g.GreedyColor(13)
	if !ok {
		t.Fatal("greedy failed on exactly-feasible clique")
	}
	if err := g.Valid(a, 13); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.GreedyColor(12); ok {
		t.Fatal("greedy claimed success with too few subchannels on a clique")
	}
}

func TestValidCatchesViolations(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.Demand = []int{1, 1}
	cases := []struct {
		name string
		a    Assignment
	}{
		{"conflict", Assignment{{0}, {0}}},
		{"short", Assignment{{}, {0}}},
		{"out-of-range", Assignment{{5}, {0}}},
		{"duplicate", Assignment{{0, 0}, {1}}},
		{"wrong-len", Assignment{{0}}},
	}
	for _, c := range cases {
		if err := g.Valid(c.a, 2); err == nil {
			t.Errorf("%s: Valid accepted %v", c.name, c.a)
		}
	}
	if err := g.Valid(Assignment{{0}, {1}}, 2); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
}

// Property: on random graphs satisfying the Demand Assumption with
// gamma > 0, greedy colouring always succeeds and validates. (Greedy
// multi-colouring needs only neighbourhood demand <= M, which gamma > 0
// guarantees.)
func TestQuickGreedyFeasible(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%10
		m := 13
		if mRaw%2 == 0 {
			m = 25
		}
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(i, j)
				}
			}
		}
		// Assign demands that respect the assumption: scale down
		// until every neighbourhood fits with slack.
		for v := 0; v < n; v++ {
			g.Demand[v] = 1 + rng.Intn(3)
		}
		for v := 0; v < n; v++ {
			for g.NeighborhoodDemand(v) > m-1 {
				// Shrink the largest demand in this neighbourhood.
				maxU, maxD := v, g.Demand[v]
				for _, u := range g.Neighbors(v) {
					if g.Demand[u] > maxD {
						maxU, maxD = u, g.Demand[u]
					}
				}
				if g.Demand[maxU] == 0 {
					break
				}
				g.Demand[maxU]--
			}
		}
		if g.Gamma(m) <= 0 {
			return true // shrinking degenerated; vacuous case
		}
		a, ok := g.GreedyColor(m)
		return ok && g.Valid(a, m) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGreedyColor(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := New(14)
	for i := 0; i < 14; i++ {
		for j := i + 1; j < 14; j++ {
			if rng.Float64() < 0.4 {
				g.AddEdge(i, j)
			}
		}
	}
	for i := range g.Demand {
		g.Demand[i] = 1 + rng.Intn(2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.GreedyColor(13)
	}
}

func TestExactColorableSimple(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.Demand = []int{2, 2, 2}
	// A path needs max adjacent-pair sum = 4.
	if _, ok := g.ExactColorable(3); ok {
		t.Fatal("3 subchannels should not satisfy a 2-2-2 path")
	}
	a, ok := g.ExactColorable(4)
	if !ok {
		t.Fatal("4 subchannels should satisfy a 2-2-2 path")
	}
	if err := g.Valid(a, 4); err != nil {
		t.Fatal(err)
	}
	if m, ok := g.MinSubchannels(13); !ok || m != 4 {
		t.Fatalf("MinSubchannels = %d (%v), want 4", m, ok)
	}
}

func TestExactColorableClique(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j)
		}
	}
	g.Demand = []int{3, 3, 3, 4}
	if m, ok := g.MinSubchannels(20); !ok || m != 13 {
		t.Fatalf("clique needs sum of demands: got %d (%v), want 13", m, ok)
	}
}

// Greedy against the exact optimum on random small graphs: greedy
// multi-colouring may need more subchannels, but whenever greedy
// succeeds the exact solver must too, and greedy's requirement should
// stay within 2x of optimal on these instances.
func TestGreedyVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(5)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(i, j)
				}
			}
		}
		for v := 0; v < n; v++ {
			g.Demand[v] = 1 + rng.Intn(3)
		}
		opt, ok := g.MinSubchannels(40)
		if !ok {
			t.Fatal("exact solver failed within 40 subchannels")
		}
		// Find greedy's requirement.
		greedyM := -1
		for m := opt; m <= 40; m++ {
			if a, ok := g.GreedyColor(m); ok {
				if err := g.Valid(a, m); err != nil {
					t.Fatal(err)
				}
				greedyM = m
				break
			}
		}
		if greedyM < 0 {
			t.Fatal("greedy never succeeded")
		}
		if greedyM < opt {
			t.Fatalf("greedy beat the optimum?! %d < %d", greedyM, opt)
		}
		if greedyM > 2*opt {
			t.Fatalf("greedy needs %d vs optimal %d", greedyM, opt)
		}
	}
}
