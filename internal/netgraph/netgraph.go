// Package netgraph models the interference relationships CellFi's
// analysis is phrased in (Section 5.5): an undirected conflict graph
// whose vertices are access points, with an edge wherever one AP can
// interfere with the other's clients. It provides neighbourhood demand
// sums (the Demand Assumption's gamma), greedy weighted colouring used
// by the centralized oracle, and feasibility checks used by tests.
package netgraph

import "fmt"

// Graph is an undirected conflict graph over vertices 0..N-1, each with
// an integer subchannel demand.
type Graph struct {
	n      int
	adj    [][]bool
	Demand []int
}

// New returns an edgeless graph with n vertices and zero demands.
func New(n int) *Graph {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	return &Graph{n: n, adj: adj, Demand: make([]int, n)}
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return g.n }

// AddEdge connects u and v (self-loops are ignored).
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// Neighbors returns the vertices adjacent to v.
func (g *Graph) Neighbors(v int) []int {
	var out []int
	for u := 0; u < g.n; u++ {
		if g.adj[v][u] {
			out = append(out, u)
		}
	}
	return out
}

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v int) int {
	d := 0
	for u := 0; u < g.n; u++ {
		if g.adj[v][u] {
			d++
		}
	}
	return d
}

// NeighborhoodDemand returns demand(v) plus the demands of v's
// neighbours — the left side of the paper's Demand Assumption.
func (g *Graph) NeighborhoodDemand(v int) int {
	sum := g.Demand[v]
	for u := 0; u < g.n; u++ {
		if g.adj[v][u] {
			sum += g.Demand[u]
		}
	}
	return sum
}

// Gamma returns the largest 1-gamma slack factor consistent with the
// Demand Assumption for M subchannels:
// for all v, sum_{u in N(v) union {v}} demand(u) <= (1-gamma)*M.
// It returns the tightest gamma over all vertices; a non-positive value
// means the assumption is violated.
func (g *Graph) Gamma(m int) float64 {
	gamma := 1.0
	for v := 0; v < g.n; v++ {
		got := 1 - float64(g.NeighborhoodDemand(v))/float64(m)
		if got < gamma {
			gamma = got
		}
	}
	return gamma
}

// Assignment maps each vertex to its set of subchannels.
type Assignment [][]int

// Valid checks that the assignment satisfies demands without conflicts:
// every vertex holds exactly its demand, all within 0..m-1, without
// duplicates, and no two adjacent vertices share a subchannel.
func (g *Graph) Valid(a Assignment, m int) error {
	if len(a) != g.n {
		return fmt.Errorf("netgraph: assignment covers %d of %d vertices", len(a), g.n)
	}
	for v := 0; v < g.n; v++ {
		if len(a[v]) != g.Demand[v] {
			return fmt.Errorf("netgraph: vertex %d holds %d subchannels, demand %d", v, len(a[v]), g.Demand[v])
		}
		seen := map[int]bool{}
		for _, c := range a[v] {
			if c < 0 || c >= m {
				return fmt.Errorf("netgraph: vertex %d uses invalid subchannel %d", v, c)
			}
			if seen[c] {
				return fmt.Errorf("netgraph: vertex %d holds subchannel %d twice", v, c)
			}
			seen[c] = true
		}
		for u := v + 1; u < g.n; u++ {
			if !g.adj[v][u] {
				continue
			}
			for _, c := range a[u] {
				if seen[c] {
					return fmt.Errorf("netgraph: adjacent vertices %d and %d share subchannel %d", v, u, c)
				}
			}
		}
	}
	return nil
}

// GreedyColor produces a conflict-free multi-colouring meeting each
// vertex's demand if one exists greedily: vertices in descending
// neighbourhood-demand order take their lowest-indexed free
// subchannels. Returns the assignment and whether all demands were met
// within m subchannels.
func (g *Graph) GreedyColor(m int) (Assignment, bool) {
	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	// Descending neighbourhood demand: the most constrained first.
	for i := 1; i < g.n; i++ {
		for j := i; j > 0 && g.NeighborhoodDemand(order[j]) > g.NeighborhoodDemand(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	a := make(Assignment, g.n)
	used := make([]map[int]bool, g.n) // per-vertex blocked subchannels
	for i := range used {
		used[i] = map[int]bool{}
	}
	ok := true
	for _, v := range order {
		for c := 0; c < m && len(a[v]) < g.Demand[v]; c++ {
			if used[v][c] {
				continue
			}
			a[v] = append(a[v], c)
			for u := 0; u < g.n; u++ {
				if g.adj[v][u] {
					used[u][c] = true
				}
			}
		}
		if len(a[v]) < g.Demand[v] {
			ok = false
		}
	}
	return a, ok
}
