package experiments

import (
	"cellfi/internal/netsim"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
	"cellfi/internal/topo"
)

// The large-scale evaluation, its ablations and its extensions are one
// program: generate a topology per trial, run named system variants
// over it, pool each variant's per-client samples in trial order, print
// rows. arm is a variant, sweep the program, and arm.run the only place
// a backlogged netsim.Network is built and driven.

// arm is one named system variant of a sweep.
type arm struct {
	name   string
	scheme netsim.Scheme
	tune   func(*netsim.Config) // edits the scheme's default config; nil keeps it
	speed  float64              // random-waypoint client speed in m/s; 0 = static
	uplink bool                 // measure the uplink over the same reservations
	// custom replaces the netsim run (the 802.11af arm).
	custom func(c *runner.Ctx, tp *topo.Topology, seed int64) []float64
}

func schemeArm(s netsim.Scheme) arm { return arm{name: s.String(), scheme: s} }

// armRun is what an arm yields on one topology or, after pool, over all
// of a sweep's trials.
type armRun struct {
	samples         []float64 // per-client Mbps (page-load seconds in Figure 9c)
	hops, handovers int
	lowIdx          float64    // share of held subchannels in the carrier's lower half
	cdf             *stats.CDF // of samples; set by pool
}

// run executes the arm backlogged over tp for epochs IM epochs. c may
// be nil outside a fleet.
func (a arm) run(c *runner.Ctx, tp *topo.Topology, seed int64, epochs int) armRun {
	if a.custom != nil {
		return armRun{samples: a.custom(c, tp, seed)}
	}
	cfg := netsim.DefaultConfig(a.scheme, seed)
	if a.tune != nil {
		a.tune(&cfg)
	}
	n := netsim.New(tp, cfg)
	if a.speed > 0 {
		m := netsim.DefaultMobility()
		m.SpeedMps = a.speed
		n.EnableMobility(m)
	}
	var out armRun
	if a.uplink {
		out.samples = n.UplinkThroughputs(epochs)
	} else {
		out.samples = n.Run(epochs)
	}
	addSteps(c, epochs)
	out.hops, out.handovers = n.Hops, n.Handovers()
	held, low := 0, 0
	for i := range n.Cells {
		for _, k := range n.Allowed(i) {
			held++
			if k < n.Cfg.BW.Subchannels()/2 {
				low++
			}
		}
	}
	if held > 0 {
		out.lowIdx = float64(low) / float64(held)
	}
	return out
}

// pool merges each arm's trials: samples concatenated in trial order,
// counters summed, the low-index share averaged.
func pool(runs [][]armRun) []armRun {
	out := make([]armRun, len(runs))
	for ai, trials := range runs {
		a := &out[ai]
		for _, r := range trials {
			a.samples = append(a.samples, r.samples...)
			a.hops += r.hops
			a.handovers += r.handovers
			a.lowIdx += r.lowIdx
		}
		a.lowIdx /= float64(len(trials))
		a.cdf = stats.NewCDF(a.samples)
	}
	return out
}

// trialSeeds gives trial tr's leg seed (netsim config, fading, the
// Wi-Fi engine) and the seed its topology is generated from; every arm
// of a trial sees the same pair, hence the same topology.
type trialSeeds func(tr int) (leg, topology int64)

// sameSeeds is Figure 9's rule: one seed, base + tr*stride, for both.
func sameSeeds(base, stride int64) trialSeeds {
	return func(tr int) (int64, int64) { s := base + int64(tr)*stride; return s, s }
}

// splitSeeds is the ablations' rule: legs seeded seed + tr, topologies
// seed + tr*stride.
func splitSeeds(seed, stride int64) trialSeeds {
	return func(tr int) (int64, int64) { return seed + int64(tr), seed + int64(tr)*stride }
}

// sweep runs every arm over trials topologies drawn from tp, one fleet
// leg per (arm, trial), and returns each arm pooled over its trials.
func sweep(campaign string, arms []arm, trials, epochs int, tp topo.Params, seeds trialSeeds) []armRun {
	names := make([]string, len(arms))
	for i, a := range arms {
		names[i] = a.name
	}
	return pool(grid(campaign, names, trials,
		func(tr int) int64 { s, _ := seeds(tr); return s },
		func(c *runner.Ctx, ai, tr int) armRun {
			_, topoSeed := seeds(tr)
			return arms[ai].run(c, topo.Generate(tp, topoSeed), c.Seed(), epochs)
		}))
}

// statRow appends a row holding one statistic of every arm.
func statRow(t *stats.Table, label string, arms []armRun, f func(armRun) string) {
	cells := []string{label}
	for _, a := range arms {
		cells = append(cells, f(a))
	}
	t.AddRow(cells...)
}

func fmtMedian(a armRun) string { return stats.Fmt(a.cdf.Median()) }
func fmtMean(a armRun) string   { return stats.Fmt(a.cdf.Mean()) }
func fmtHops(a armRun) string   { return stats.Fmt(float64(a.hops)) }

// starvedPct is the share of an arm's clients below barMbps, in percent.
func starvedPct(a armRun, barMbps float64) float64 { return a.cdf.FractionBelow(barMbps) * 100 }

func fmtStarved(a armRun) string { return stats.Fmt(starvedPct(a, StarveThresholdMbps)) }
