package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"

	"cellfi/internal/experiments"
	"cellfi/internal/geo"
	"cellfi/internal/lte"
	"cellfi/internal/netsim"
	"cellfi/internal/phy"
	"cellfi/internal/propagation"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
	"cellfi/internal/topo"
)

// runMap renders an ASCII coverage map of a deployment: the
// best-server downlink SINR at every grid point, with access points
// marked. Run it once with -scheme lte and once with -scheme cellfi to
// see what interference management buys at the cell edges.
func runMap(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlags("map", stderr)
	aps := fs.Int("aps", 10, "access points")
	clients := fs.Int("clients", 6, "clients per AP")
	scheme := fs.String("scheme", "cellfi", "lte, cellfi, oracle, random-hop or hybrid")
	seed := fs.Int64("seed", 1, "random seed")
	cols := fs.Int("cols", 96, "map width (characters)")
	rows := fs.Int("rows", 36, "map height (characters)")
	epochs := fs.Int("epochs", 20, "IM epochs before sampling")
	subchannel := fs.Int("subchannel", 0, "subchannel to map")
	if code, ok := parse(fs, args, 0); !ok {
		return code
	}
	s, err := netsim.ParseScheme(*scheme)
	if err != nil {
		return fail(fs, exitUsage, "%v", err)
	}
	if *aps < 1 || *clients < 1 || *epochs < 1 || *cols < 1 || *rows < 1 {
		return fail(fs, exitUsage, "-aps, -clients, -epochs, -cols and -rows must be at least 1")
	}
	if n := netsim.DefaultConfig(s, *seed).BW.Subchannels(); *subchannel < 0 || *subchannel >= n {
		return fail(fs, exitUsage, "-subchannel %d is outside the carrier's 0..%d", *subchannel, n-1)
	}

	g := experiments.Grid{Arms: []experiments.Arm{experiments.SchemeArm(s, nil)}, APs: []int{*aps}, Clients: []int{*clients},
		Trials: 1, Epochs: *epochs, Seeds: experiments.SameSeeds(*seed, 0, 0, 0)}
	res, _, err := g.Run(ctx, runner.Options{Workers: 1}) // converge the reservations
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}
	tp := topo.Generate(topo.Paper(*aps, *clients), *seed) // the grid's one topology

	// Who transmits in the mapped subchannel after convergence?
	model := propagation.DefaultUrban(*seed)
	model.ShadowSigmaDB = 0 // median map
	perRB := 30 - 10*math.Log10(25) + 6
	noise := propagation.NoiseDBm(lte.RBBandwidthHz, 7)
	active := map[int]bool{}
	for i, held := range res[0][0][0].Held {
		if slices.Contains(held, *subchannel) {
			active[i] = true
		}
	}

	side := tp.Params.AreaSide
	grid := make([][]float64, *rows)
	for r := range grid {
		grid[r] = make([]float64, *cols)
		for c := range grid[r] {
			p := geo.Point{
				X: (float64(c) + 0.5) / float64(*cols) * side,
				Y: side - (float64(r)+0.5)/float64(*rows)*side,
			}
			// Best server among cells active in this subchannel;
			// the rest interfere.
			best := math.Inf(-1)
			for i, ap := range tp.APs {
				if !active[i] {
					continue
				}
				sig := perRB - model.PathLossDB(ap.Dist(p))
				den := propagation.DBmToMW(noise)
				for j, other := range tp.APs {
					if j == i || !active[j] {
						continue
					}
					den += propagation.DBmToMW(perRB - model.PathLossDB(other.Dist(p)))
				}
				if sinr := sig - propagation.MWToDBm(den); sinr > best {
					best = sinr
				}
			}
			if math.IsInf(best, -1) {
				grid[r][c] = math.NaN()
			} else {
				// Clamp to the CQI-relevant range so the ramp shows
				// usable-vs-dead, not raw dynamic range.
				grid[r][c] = math.Max(phy.LTEMinSINRdB, math.Min(25, best))
			}
		}
	}

	marks := map[[2]int]byte{}
	for i, ap := range tp.APs {
		c := int(ap.X / side * float64(*cols))
		r := int((side - ap.Y) / side * float64(*rows))
		if r >= 0 && r < *rows && c >= 0 && c < *cols {
			marks[[2]int{r, c}] = byte('A' + i%26)
		}
	}

	fmt.Fprintf(stdout, "best-server SINR map, subchannel %d, scheme %s (%d APs; letters mark cells transmitting here: %d)\n",
		*subchannel, s, *aps, len(active))
	fmt.Fprint(stdout, stats.Heatmap(grid, marks))
	return 0
}
