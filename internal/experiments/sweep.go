package experiments

import (
	"context"
	"fmt"

	"cellfi/internal/netsim"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
	"cellfi/internal/topo"
)

// The large-scale evaluation, its ablations and extensions, `cellfi sim`
// and `cellfi map` are one program: run named system variants (Arm) on
// a topology per (point, trial) (Grid). Arm.run is the only place a
// backlogged netsim.Network is built and driven.

// Arm is one named system variant of a grid.
type Arm struct {
	name   string
	scheme netsim.Scheme
	tune   func(*netsim.Config) // edits the scheme's default config; nil keeps it
	speed  float64              // random-waypoint client speed in m/s; 0 = static
	uplink bool                 // measure the uplink over the same reservations
	// custom replaces the netsim run (the 802.11af arm).
	custom func(c *runner.Ctx, tp *topo.Topology, seed int64) []float64
}

// SchemeArm is scheme s, its default config edited by tune if not nil.
func SchemeArm(s netsim.Scheme, tune func(*netsim.Config)) Arm {
	return Arm{name: s.String(), scheme: s, tune: tune}
}

// ArmRun is what an arm yields on one topology or, after pool, over all
// of a sweep's trials.
type ArmRun struct {
	Samples         []float64 // per-client Mbps (page-load seconds in Figure 9c)
	Hops, Handovers int
	Held            [][]int    // each cell's subchannels at the end of the run; not pooled
	LowIdx          float64    // share of held subchannels in the carrier's lower half
	cdf             *stats.CDF // of Samples; set by pool
}

// run executes the arm backlogged over tp for epochs IM epochs, into
// the leg's flight recorder if any. c is nil outside a fleet.
func (a Arm) run(c *runner.Ctx, tp *topo.Topology, seed int64, epochs int) ArmRun {
	if a.custom != nil {
		return ArmRun{Samples: a.custom(c, tp, seed)}
	}
	cfg := netsim.DefaultConfig(a.scheme, seed)
	if a.tune != nil {
		a.tune(&cfg)
	}
	cfg.Trace = c.Recorder()
	n := netsim.New(tp, cfg)
	if a.speed > 0 {
		m := netsim.DefaultMobility()
		m.SpeedMps = a.speed
		n.EnableMobility(m)
	}
	var out ArmRun
	if a.uplink {
		out.Samples = n.UplinkThroughputs(epochs)
	} else {
		out.Samples = n.Run(epochs)
	}
	c.AddSteps(int64(epochs))
	out.Hops, out.Handovers = n.Hops, n.Handovers()
	out.Held = make([][]int, len(n.Cells))
	held, low := 0, 0
	for i := range n.Cells {
		out.Held[i] = n.Allowed(i)
		for _, k := range out.Held[i] {
			held++
			if k < n.Cfg.BW.Subchannels()/2 {
				low++
			}
		}
	}
	if held > 0 {
		out.LowIdx = float64(low) / float64(held)
	}
	return out
}

// pool merges each arm's trials: samples concatenated in trial order,
// counters summed, the low-index share averaged.
func pool(runs [][]ArmRun) []ArmRun {
	out := make([]ArmRun, len(runs))
	for ai, trials := range runs {
		a := &out[ai]
		for _, r := range trials {
			a.Samples = append(a.Samples, r.Samples...)
			a.Hops += r.Hops
			a.Handovers += r.Handovers
			a.LowIdx += r.LowIdx
		}
		a.LowIdx /= float64(len(trials))
		a.cdf = stats.NewCDF(a.Samples)
	}
	return out
}

// Seeds gives trial tr's leg seed (netsim config, fading, the Wi-Fi
// engine) and topology seed at a point; every arm of a (point, trial)
// gets the same pair, hence the same topology.
type Seeds func(aps, clients, tr int) (leg, topology int64)

// SameSeeds is Figure 9's and `cellfi sim`'s rule: one seed,
// base + tr*stride + aps*perAP + clients*perClient, for both.
func SameSeeds(base, stride, perAP, perClient int64) Seeds {
	return func(aps, clients, tr int) (int64, int64) {
		s := base + int64(tr)*stride + int64(aps)*perAP + int64(clients)*perClient
		return s, s
	}
}

// splitSeeds is the ablations' rule: legs seeded seed + tr, topologies
// seed + tr*stride.
func splitSeeds(seed, stride int64) Seeds {
	return func(_, _, tr int) (int64, int64) { return seed + int64(tr), seed + int64(tr)*stride }
}

// Grid runs every arm at every point (each of APs with each of Clients)
// over Trials topologies: one leg per (point, arm, trial), labelled
// [Campaign/]arm/aps=N/clients=M/trial=T, a point's arms claimed in
// order, so its long 802.11af legs go first.
type Grid struct {
	Campaign       string
	Arms           []Arm
	APs, Clients   []int
	Trials, Epochs int
	Seeds          Seeds
	Area           float64 // topology side in m; 0 keeps topo.Paper's
}

// Run runs the grid under opts and returns results[point][arm][trial]
// with the campaign report. A failed leg is an error, not a panic.
func (g Grid) Run(ctx context.Context, opts runner.Options) ([][][]ArmRun, *runner.Report, error) {
	// runGrid's arm i is Arms[i%na] at the point (APs[i/na/nc], Clients[i/na%nc]).
	na, nc := len(g.Arms), len(g.Clients)
	names := make([]string, len(g.APs)*nc*na)
	for i := range names {
		names[i] = fmt.Sprintf("%s/aps=%d/clients=%d", g.Arms[i%na].name, g.APs[i/na/nc], g.Clients[i/na%nc])
	}
	seeds := func(i, tr int) (leg, topology int64) { return g.Seeds(g.APs[i/na/nc], g.Clients[i/na%nc], tr) }
	res, rep, err := runGrid(ctx, opts, g.Campaign, names, g.Trials,
		func(i, tr int) int64 { leg, _ := seeds(i, tr); return leg },
		func(c *runner.Ctx, i, tr int) ArmRun {
			p := topo.Paper(g.APs[i/na/nc], g.Clients[i/na%nc])
			if g.Area > 0 {
				p.AreaSide = g.Area
			}
			_, topoSeed := seeds(i, tr)
			return g.Arms[i%na].run(c, topo.Generate(p, topoSeed), c.Seed(), g.Epochs)
		})
	if err != nil {
		return nil, rep, err
	}
	out := make([][][]ArmRun, len(g.APs)*nc)
	for p := range out {
		out[p] = res[p*na : (p+1)*na]
	}
	return out, rep, nil
}

// sweep runs g as an experiment fleet, panicking on a failed leg, and
// returns each point's arms pooled over their trials.
func sweep(g Grid) [][]ArmRun {
	res, rep, err := g.Run(context.Background(), fleetOptions())
	keep(g.Campaign, rep, err)
	out := make([][]ArmRun, len(res))
	for p := range res {
		out[p] = pool(res[p])
	}
	return out
}

// statRow appends a row holding one statistic of every arm.
func statRow(t *stats.Table, label string, arms []ArmRun, f func(ArmRun) string) {
	cells := []string{label}
	for _, a := range arms {
		cells = append(cells, f(a))
	}
	t.AddRow(cells...)
}

func fmtMedian(a ArmRun) string { return stats.Fmt(a.cdf.Median()) }
func fmtMean(a ArmRun) string   { return stats.Fmt(a.cdf.Mean()) }
func fmtHops(a ArmRun) string   { return stats.Fmt(float64(a.Hops)) }

// starvedPct is the share of an arm's clients below barMbps, in percent.
func starvedPct(a ArmRun, barMbps float64) float64 { return a.cdf.FractionBelow(barMbps) * 100 }

func fmtStarved(a ArmRun) string { return stats.Fmt(starvedPct(a, StarveThresholdMbps)) }
