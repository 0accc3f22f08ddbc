package netsim

import (
	"cellfi/internal/core"
	"cellfi/internal/netgraph"
)

// SchemeHybrid implements the Section 7 extension: "CellFi can be
// extended to include centralized coordination among nodes from one
// provider, and distributed coordination across multiple providers."
//
// The distributed layer is exactly CellFi: every cell runs its own
// controller against PRACH overhearing and CQI drops, providers or
// not. On top, each provider's operations system — which *can* see its
// own cells' holdings over backhaul — runs a deconfliction pass every
// epoch: whenever two of its mutually-interfering cells reserved the
// same subchannel, the cell with less traffic is moved to a subchannel
// free of same-provider conflicts. Cross-provider interference is
// still resolved purely by the distributed protocol.

// deconflictProviders runs each provider's centralized deconfliction.
// Step calls it after the per-cell distributed layer (updateControllers,
// identical to plain CellFi).
func (n *Network) deconflictProviders() {
	np := 0
	for _, p := range n.providers {
		if p+1 > np {
			np = p + 1
		}
	}
	cellsOf := make([][]int, np)
	for i, p := range n.providers {
		cellsOf[p] = append(cellsOf[p], i)
	}
	g := n.conflictGraph()
	for _, cells := range cellsOf {
		n.deconflictProvider(cells, g)
	}
}

// deconflictProvider removes intra-provider subchannel collisions: for
// every conflicting pair of the provider's cells sharing a subchannel,
// the cell with fewer active clients releases it and, where possible,
// acquires a subchannel no conflicting same-provider cell holds.
func (n *Network) deconflictProvider(cells []int, g *netgraph.Graph) {
	ctl := func(i int) *core.Controller { return n.controllers[i].(*core.Controller) }

	for ai, i := range cells {
		for _, j := range cells[ai+1:] {
			if !g.Adjacent(i, j) {
				continue
			}
			heldI := map[int]bool{}
			for _, k := range ctl(i).Held() {
				heldI[k] = true
			}
			for _, k := range ctl(j).Held() {
				if !heldI[k] {
					continue
				}
				// Collision on k: the lighter cell moves.
				loser := j
				if len(n.active[j]) > len(n.active[i]) {
					loser = i
				}
				lc := ctl(loser)
				lc.Release(k)
				// Re-acquire only where no same-provider conflict
				// exists; if every such subchannel is also unknown
				// territory, leave re-acquisition to the distributed
				// layer's sensed-informed pick next epoch.
				if repl, ok := n.freeOfProviderConflicts(loser, cells, g); ok {
					lc.Acquire(repl)
				}
				n.allowed[loser] = lc.Held()
			}
		}
	}
}

// freeOfProviderConflicts finds the lowest-index subchannel that
// neither cell `who` nor any conflicting same-provider cell currently
// holds.
func (n *Network) freeOfProviderConflicts(who int, cells []int, g *netgraph.Graph) (int, bool) {
	blocked := map[int]bool{}
	for _, k := range n.controllers[who].Held() {
		blocked[k] = true
	}
	for _, j := range cells {
		if j == who || !g.Adjacent(who, j) {
			continue
		}
		for _, k := range n.controllers[j].Held() {
			blocked[k] = true
		}
	}
	// Prefer the highest free index: the packing heuristic crowds
	// low indices with re-use candidates, so a coordinated move is
	// least likely to collide cross-provider up high.
	for k := n.Cfg.BW.Subchannels() - 1; k >= 0; k-- {
		if !blocked[k] {
			return k, true
		}
	}
	return 0, false
}
