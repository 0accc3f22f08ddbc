// Package topo generates the evaluation topologies of Section 6.3.4:
// access points placed in a 2 km x 2 km area with a configurable
// density, each serving a fixed number of clients placed within its
// coverage range, repeated across seeded trials.
package topo

import (
	"math/rand"

	"cellfi/internal/geo"
)

// Params controls topology generation.
type Params struct {
	// Area side length in metres (paper: 2000).
	AreaSide float64
	// NumAPs is the density knob (paper sweeps 6..14).
	NumAPs int
	// ClientsPerAP (paper: 6, denser runs 16).
	ClientsPerAP int
	// CellRadius bounds client placement around their AP (clients
	// are attached to the AP that serves them; the paper places
	// "the same number of clients within the corresponding range of
	// each access point").
	CellRadius float64
	// MinAPSpacing avoids degenerate co-located cells.
	MinAPSpacing float64
	// MinClientDist keeps clients off the AP mast.
	MinClientDist float64
}

// Paper returns the Section 6.3.4 parameters for a given AP count and
// clients per AP.
func Paper(numAPs, clientsPerAP int) Params {
	return Params{
		AreaSide:      2000,
		NumAPs:        numAPs,
		ClientsPerAP:  clientsPerAP,
		CellRadius:    700,
		MinAPSpacing:  250,
		MinClientDist: 25,
	}
}

// Topology is one generated deployment.
type Topology struct {
	Params Params
	APs    []geo.Point
	// Clients[i] holds the positions of AP i's clients.
	Clients [][]geo.Point
}

// Generate builds one topology from the given seed.
func Generate(p Params, seed int64) *Topology {
	rng := rand.New(rand.NewSource(seed))
	area := geo.Square(p.AreaSide)
	aps := geo.MinSpacedPoints(rng, area, p.NumAPs, p.MinAPSpacing)
	clients := make([][]geo.Point, p.NumAPs)
	for i, ap := range aps {
		clients[i] = make([]geo.Point, p.ClientsPerAP)
		for j := range clients[i] {
			clients[i][j] = geo.RandomPointInRing(rng, ap, p.MinClientDist, p.CellRadius, &area)
		}
	}
	return &Topology{Params: p, APs: aps, Clients: clients}
}
