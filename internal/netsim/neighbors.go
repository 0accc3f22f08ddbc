package netsim

import (
	"cellfi/internal/geo"
)

// Interference neighborhoods for the epoch simulator. With
// Config.InterferenceRadiusM > 0 every interference-bearing scan — the
// SINR denominator, the PRACH census, the oracle's conflict edges, the
// hybrid deconfliction test, the handover sweep — ignores nodes beyond
// the significance radius (DESIGN.md, "The significance radius"). With
// Config.UseSpatialIndex also set, the scans that would walk every node
// run as uniform-grid queries instead; the SINR denominator, in every
// mode, filters its subchannel's transmitter list through the predicate
// into a scratch list and walks that (see sinrParts and interferers).
//
// The truncation rule is the same inclusive squared-distance test in
// both modes, and every scan either visits survivors in ascending index
// order (float sums, handover ties) or is order-independent (census
// counts, conflict-edge sets), so indexed and brute-truncated runs are
// bit-identical — the property the 50-seed trace test pins down.
//
// Mobility: a moved client calls clientGrid.Move + refreshLinkBudget;
// the grid answers only "who is near".
// Link budgets are refreshed only within the client's new neighborhood
// (plus its serving cell) — entries beyond the radius go stale, and
// every reader filters by the same radius, so stale entries are
// unreachable by construction.

// setupNeighborhoods wires truncation and (optionally) the spatial
// index after the topology and link budget exist.
func (n *Network) setupNeighborhoods() {
	r := n.Cfg.InterferenceRadiusM
	if r <= 0 {
		return
	}
	n.truncate = true
	n.sigRadius = r
	n.sigR2 = r * r
	if !n.Cfg.UseSpatialIndex {
		return
	}
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

// markActive rebuilds the dense active-client flags the indexed PRACH
// census keys on.
func (n *Network) markActive(active [][]int) {
	if n.activeFlag == nil {
		return
	}
	for c := range n.activeFlag {
		n.activeFlag[c] = false
	}
	for j := range active {
		for _, c := range active[j] {
			n.activeFlag[c] = true
		}
	}
}
