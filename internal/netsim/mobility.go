package netsim

import (
	"math"

	"cellfi/internal/geo"
)

// Mobility and roaming (Section 7): "CellFi inherits the benefits of
// the LTE architecture. It provides seamless roaming across access
// points." This file adds random-waypoint client movement and
// strongest-cell handover to the epoch simulator: each epoch moving
// clients re-evaluate their serving cell, the link budget refreshes,
// and the PRACH census (hence the shares) tracks them automatically —
// no extra protocol is needed, which is exactly the paper's point.

// MobilityConfig shapes the random-waypoint process.
type MobilityConfig struct {
	// SpeedMps is the walking/driving speed in metres per second
	// (applied over the 1 s epoch).
	SpeedMps float64
	// PauseEpochs is how long a client rests at each waypoint.
	PauseEpochs int
	// HandoverMarginDB: a client switches cells only when another
	// cell beats the serving one by this margin (hysteresis, as real
	// A3 events use).
	HandoverMarginDB float64
}

// DefaultMobility returns pedestrian mobility with a 3 dB A3 margin.
func DefaultMobility() MobilityConfig {
	return MobilityConfig{SpeedMps: 1.5, PauseEpochs: 5, HandoverMarginDB: 3}
}

// mobileState tracks one client's waypoint walk.
type mobileState struct {
	waypoint geo.Point
	pause    int
}

// EnableMobility switches the network into mobile mode. Handovers
// reassign Clients[i].Cell and the ClientsOf index; the link budget is
// recomputed for moved clients each epoch.
func (n *Network) EnableMobility(cfg MobilityConfig) {
	n.mobility = &cfg
	n.mobile = make([]mobileState, len(n.Clients))
	rng := n.rng
	area := geo.Square(n.Topo.Params.AreaSide)
	for i := range n.mobile {
		n.mobile[i] = mobileState{waypoint: area.RandomPoint(rng)}
	}
}

// Handovers returns the cumulative cell switches since EnableMobility.
func (n *Network) Handovers() int { return n.handovers }

// stepMobility moves every client one epoch along its waypoint walk,
// refreshes its link budget, and runs strongest-cell handover with
// hysteresis. Called at the start of Step when mobility is enabled.
func (n *Network) stepMobility() {
	cfg := n.mobility
	rng := n.rng
	area := geo.Square(n.Topo.Params.AreaSide)
	for ci, cl := range n.Clients {
		st := &n.mobile[ci]
		if st.pause > 0 {
			st.pause--
		} else {
			d := cl.Pos.Dist(st.waypoint)
			step := cfg.SpeedMps // one 1 s epoch
			if d <= step {
				cl.Pos = st.waypoint
				st.waypoint = area.RandomPoint(rng)
				st.pause = cfg.PauseEpochs
			} else {
				ang := cl.Pos.Bearing(st.waypoint)
				cl.Pos = cl.Pos.Add(step*math.Cos(ang), step*math.Sin(ang))
			}
			// The client moved: rebucket it in the spatial index and
			// recompute its link budget at the new position.
			if n.clientGrid != nil {
				n.clientGrid.Move(int32(ci), cl.Pos)
			}
			n.refreshLinkBudget(ci)
		}
		// Strongest-cell handover with hysteresis. Serving is always a
		// fresh entry, so it seeds the scan; candidates beyond the
		// significance radius are invisible (their budget entries may
		// be stale, and no reader may touch them). Candidates come in
		// ascending cell order and need a strict >, so ties go to the
		// lowest index.
		best, bestRx := cl.Cell, n.rxDBm(cl.Cell, ci)
		for _, j := range n.cellsNear(cl.Pos) {
			if rx := n.rxDBm(int(j), ci); rx > bestRx {
				best, bestRx = int(j), rx
			}
		}
		if best != cl.Cell && bestRx >= n.rxDBm(cl.Cell, ci)+cfg.HandoverMarginDB {
			n.reassign(ci, best)
		}
	}
}

// refreshLinkBudget recomputes the cached budget for one (moved)
// client: the cells near its new position (cellsNear — every cell when
// there is no radius) plus the serving cell, which is always fresh for
// the handover seed. Entries outside that set go stale, but every
// reader filters by the same radius, so they are unreachable.
func (n *Network) refreshLinkBudget(ci int) {
	cl := n.Clients[ci]
	serving := false
	for _, j := range n.cellsNear(cl.Pos) {
		n.setLinkBudget(int(j), ci)
		serving = serving || int(j) == cl.Cell
	}
	if !serving {
		n.setLinkBudget(cl.Cell, ci)
	}
}

// reassign moves a client between cells' rosters.
func (n *Network) reassign(ci, to int) {
	from := n.Clients[ci].Cell
	out := n.ClientsOf[from][:0]
	for _, c := range n.ClientsOf[from] {
		if c != ci {
			out = append(out, c)
		}
	}
	n.ClientsOf[from] = out
	n.ClientsOf[to] = append(n.ClientsOf[to], ci)
	n.Clients[ci].Cell = to
	n.handovers++
}
