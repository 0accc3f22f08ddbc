package core

import (
	"math/rand"
	"sort"

	"cellfi/internal/netgraph"
)

// HopModel is the abstract randomized-hopping process analysed in
// Section 5.5: vertices of a conflict graph with integer demands
// attempt, round by round, to acquire subchannels none of their
// neighbours hold. Each attempt fails if a neighbour made the same
// choice in the same round (clash) or the chosen subchannel is faded
// (probability p, independent per attempt). Theorem 1: under the
// Demand Assumption (gamma > 0), convergence takes
// O(M log n / ((1-p) * gamma)) rounds with high probability.
type HopModel struct {
	Graph *netgraph.Graph
	// M is the number of subchannels.
	M int
	// FadeProb is the per-attempt fading probability p.
	FadeProb float64

	rng  *rand.Rand
	held []map[int]bool
}

// NewHopModel builds the process; demands live in g.Demand.
func NewHopModel(g *netgraph.Graph, m int, fadeProb float64, rng *rand.Rand) *HopModel {
	held := make([]map[int]bool, g.Len())
	for i := range held {
		held[i] = make(map[int]bool)
	}
	return &HopModel{Graph: g, M: m, FadeProb: fadeProb, rng: rng, held: held}
}

// Converged reports whether every vertex has satisfied its demand.
func (h *HopModel) Converged() bool {
	for v := 0; v < h.Graph.Len(); v++ {
		if len(h.held[v]) < h.Graph.Demand[v] {
			return false
		}
	}
	return true
}

// Round executes one synchronous hopping round: every vertex with
// unmet demand makes one attempt per missing unit. An attempt picks a
// uniform subchannel among those sensed free (not held by the vertex
// or any neighbour); it succeeds unless a neighbour attempted the same
// subchannel this round or the subchannel fades.
func (h *HopModel) Round() {
	n := h.Graph.Len()
	// Collect this round's attempts: vertex -> set of subchannels.
	attempts := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		missing := h.Graph.Demand[v] - len(h.held[v])
		if missing <= 0 {
			continue
		}
		free := h.sensedFree(v)
		if len(free) == 0 {
			continue
		}
		attempts[v] = make(map[int]bool)
		for a := 0; a < missing; a++ {
			attempts[v][free[h.rng.Intn(len(free))]] = true
		}
	}
	// Resolve: clash if any neighbour attempted the same subchannel
	// (or already holds it — cannot happen by construction of free).
	// Attempts are resolved in ascending subchannel order so runs are
	// deterministic for a given seed.
	for v := 0; v < n; v++ {
		ks := make([]int, 0, len(attempts[v]))
		for k := range attempts[v] {
			ks = append(ks, k)
		}
		sort.Ints(ks)
		for _, k := range ks {
			clash := false
			for _, u := range h.Graph.Neighbors(v) {
				if attempts[u][k] {
					clash = true
					break
				}
			}
			if clash || h.rng.Float64() < h.FadeProb {
				continue
			}
			if len(h.held[v]) < h.Graph.Demand[v] {
				h.held[v][k] = true
			}
		}
	}
}

// sensedFree lists subchannels neither v nor its neighbours hold.
func (h *HopModel) sensedFree(v int) []int {
	blocked := make(map[int]bool, len(h.held[v]))
	for k := range h.held[v] {
		blocked[k] = true
	}
	for _, u := range h.Graph.Neighbors(v) {
		for k := range h.held[u] {
			blocked[k] = true
		}
	}
	free := make([]int, 0, h.M)
	for k := 0; k < h.M; k++ {
		if !blocked[k] {
			free = append(free, k)
		}
	}
	return free
}

// RunToConvergence executes rounds until convergence or maxRounds and
// returns the number of rounds taken plus whether it converged.
func (h *HopModel) RunToConvergence(maxRounds int) (int, bool) {
	for r := 0; r < maxRounds; r++ {
		if h.Converged() {
			return r, true
		}
		h.Round()
	}
	return maxRounds, h.Converged()
}
