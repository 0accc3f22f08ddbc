package netsim

import (
	"cellfi/internal/geo"
)

// Interference neighborhoods for the epoch simulator. With
// Config.InterferenceRadiusM > 0 every interference-bearing scan — the
// SINR denominator, the PRACH census, the conflict graph the oracle and
// hybrid's provider layer share, the handover pick, the mobile budget
// refresh, the uplink interferers — ignores nodes beyond the
// significance radius (DESIGN.md, "The significance radius"). Zero keeps
// the all-pairs scans. There is one truncated mode: a radius builds a
// uniform grid over the cells and one over the clients, and two helpers
// answer every "who is near" question a scan asks:
//
//   - cellsNear(p): the cells within the radius of p (every cell, with
//     no radius) — the conflict graph, the handover pick and the budget
//     refresh;
//   - activeNear(p): the clients with queued data within the radius of p
//     (every such client, with no radius) — the PRACH census.
//
// Both return ascending indices. The scans that filter a list they
// already hold — the SINR interferer list (interferers) and the uplink
// representatives — apply the same inclusive squared-distance predicate
// through cellNearPos / clientNearPos instead. Tests referee the helpers
// against brute scans with that predicate (TestNeighborhoodsMatchBrute).
//
// Mobility: a moved client calls clientGrid.Move + refreshLinkBudget;
// the grid answers only "who is near". Link budgets are refreshed only
// within the client's new neighborhood (plus its serving cell) — entries
// beyond the radius go stale, and every reader filters by the same
// radius, so stale entries are unreachable by construction.

// setupNeighborhoods wires truncation and the two grids after the
// topology and link budget exist; with no radius it prebuilds the
// every-cell list cellsNear returns.
func (n *Network) setupNeighborhoods() {
	r := n.Cfg.InterferenceRadiusM
	if r <= 0 {
		n.allCells = make([]int32, len(n.Cells))
		for j := range n.allCells {
			n.allCells[j] = int32(j)
		}
		return
	}
	n.truncate = true
	n.sigRadius = r
	n.sigR2 = r * r
	area := geo.Square(n.Topo.Params.AreaSide)
	n.cellGrid = geo.NewGrid(area, r)
	for i, p := range n.Cells {
		n.cellGrid.Insert(int32(i), p)
	}
	n.clientGrid = geo.NewGrid(area, r)
	for c, cl := range n.Clients {
		n.clientGrid.Insert(int32(c), cl.Pos)
	}
	n.activeFlag = make([]bool, len(n.Clients))
}

// cellsNear returns, ascending, the cells within the significance radius
// of p — every cell when there is no radius. The slice is the network's
// own scratch (or its every-cell list), valid until the next call.
func (n *Network) cellsNear(p geo.Point) []int32 {
	if n.cellGrid == nil {
		return n.allCells
	}
	n.cellScratch = n.cellGrid.AppendWithin(n.cellScratch[:0], p, n.sigRadius)
	return n.cellScratch
}

// activeNear returns, ascending, the clients with queued data this epoch
// (as markActive last recorded them) within the significance radius of
// p — every such client when there is no radius. The slice is ks's,
// valid until its next call.
func (n *Network) activeNear(ks *kernelScratch, p geo.Point) []int32 {
	if n.clientGrid == nil {
		return n.activeAll
	}
	near := n.clientGrid.AppendWithin(ks.clientScratch[:0], p, n.sigRadius)
	m := 0
	for _, c := range near {
		// Keep c by advancing m: no branch on the flag.
		near[m] = c
		if n.activeFlag[c] {
			m++
		}
	}
	ks.clientScratch = near
	return near[:m]
}

// cellNearPos applies the truncation predicate to cell j and a point.
func (n *Network) cellNearPos(j int, p geo.Point) bool {
	q := n.Cells[j]
	dx, dy := q.X-p.X, q.Y-p.Y
	return dx*dx+dy*dy <= n.sigR2
}

// clientNearPos applies the truncation predicate to client c and a point.
func (n *Network) clientNearPos(c int, p geo.Point) bool {
	q := n.Clients[c].Pos
	dx, dy := q.X-p.X, q.Y-p.Y
	return dx*dx+dy*dy <= n.sigR2
}

// markActive records which clients have queued data this epoch: the
// dense flags activeNear filters grid answers through, or with no
// radius the ascending list it returns.
func (n *Network) markActive() {
	all := n.activeAll[:0]
	for c, cl := range n.Clients {
		on := cl.QueuedBits > 0
		if n.activeFlag != nil {
			n.activeFlag[c] = on
		} else if on {
			all = append(all, int32(c))
		}
	}
	n.activeAll = all
}
