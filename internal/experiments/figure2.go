package experiments

import (
	"time"

	"cellfi/internal/propagation"
	"cellfi/internal/runner"
	"cellfi/internal/sim"
	"cellfi/internal/stats"
	"cellfi/internal/topo"
	"cellfi/internal/wifi"
)

// wifiNet builds a Wi-Fi network over a topology: one AP per cell and
// its clients, every node at the same transmit power, IDs in topology
// order (which is also the order APs() and Clients() enumerate).
func wifiNet(eng *sim.Engine, t *topo.Topology, params wifi.Params, model *propagation.Model, txPowerDBm float64) *wifi.Network {
	n := wifi.NewNetwork(eng, model, params)
	id := 1
	for i, apPos := range t.APs {
		ap := n.AddAP(id, apPos, txPowerDBm)
		id++
		for _, cp := range t.Clients[i] {
			n.AddClient(id, cp, txPowerDBm, ap)
			id++
		}
	}
	return n
}

// wifiTrial runs one backlogged Wi-Fi network over a topology, its
// downlink queues refilled every topUp, and returns per-client
// throughput in Mbps.
func wifiTrial(c *runner.Ctx, t *topo.Topology, params wifi.Params, model *propagation.Model, txPowerDBm float64, seed int64, dur, topUp time.Duration) []float64 {
	eng := fleetEngine(c, seed)
	n := wifiNet(eng, t, params, model, txPowerDBm)
	top := func() {
		for _, ap := range n.APs() {
			for _, c := range ap.Clients() {
				if ap.QueuedBits(c) < 1<<22 {
					ap.Enqueue(c, 1<<26)
				}
			}
		}
	}
	top()
	eng.EveryAt(0, topUp, top)
	eng.Run(dur)
	var out []float64
	for _, ap := range n.APs() {
		for _, c := range ap.Clients() {
			out = append(out, float64(ap.DeliveredBits(c))/dur.Seconds()/1e6)
		}
	}
	return out
}

// Figure2 reproduces the Wi-Fi MAC inefficiency comparison of Section
// 3.2: the same access points run once as an outdoor 802.11af network
// (30 dBm, clients up to 700 m out) and once as a short-range 802.11ac
// deployment (20 dBm, clients within the radius that gives the same
// edge SNR over indoor propagation), both on 20 MHz with RTS/CTS.
// Equal receiver SNRs make the
// PHY rates comparable; what differs is the MAC: the long-range
// network's carrier-sense footprint couples every cell in the area and
// breeds hidden/exposed terminals, while the short-range cells barely
// hear each other — plus the down-clocked 802.11af timing stretches
// every contention round.
func Figure2(seed int64, quick bool) Result {
	trials, dur := 5, 2*time.Second
	if quick {
		trials, dur = 2, 500*time.Millisecond
	}
	// Each trial contributes two independent legs: the outdoor
	// 802.11af network (30 dBm, 700 m cells) and the short-range
	// 802.11ac deployment (20 dBm, the radius giving the same edge SNR
	// over indoor propagation — Section 3.2: "same number of clients
	// within the corresponding range of each access point ... average
	// SNR at the receiver is same").
	res := pool(grid("fig2", []string{"11af", "11ac"}, trials,
		func(tr int) int64 { return seed + int64(tr)*131 },
		func(c *runner.Ctx, ai, tr int) armRun {
			if ai == 0 {
				afTopo := topo.Generate(topo.Paper(8, 6), c.Seed())
				return armRun{samples: wifiTrial(c, afTopo, wifi.Params11af20(),
					propagation.DefaultUrban(c.Seed()), 30, c.Seed(), dur, 50*time.Millisecond)}
			}
			acParams := topo.Paper(8, 6)
			acParams.CellRadius = 290 // 20 dBm indoor edge SNR == 30 dBm urban at 700 m
			acTopo := topo.Generate(acParams, c.Seed())
			return armRun{samples: wifiTrial(c, acTopo, wifi.Params11ac20(),
				propagation.IndoorShortRange(c.Seed()), 20, c.Seed(), dur, 50*time.Millisecond)}
		}))
	af, ac := res[0], res[1]

	t := &stats.Table{
		Title:   "Figure 2: client throughput, 802.11af vs 802.11ac (equal SNRs)",
		Headers: []string{"Metric", "802.11af", "802.11ac"},
	}
	statRow(t, "Median (Mbps)", res, fmtMedian)
	statRow(t, "Mean (Mbps)", res, fmtMean)
	statRow(t, "Starved (< 0.1 Mbps)", res, func(a armRun) string { return stats.Fmt(starvedPct(a, 0.1)) + "%" })

	return Result{
		ID:     "fig2",
		Title:  "Figure 2: Wi-Fi MAC inefficiencies on long links",
		Tables: []*stats.Table{t},
		Series: []stats.Series{
			cdfSeries("fig2: 802.11af client throughput CDF (Mbps)", af.samples, 41),
			cdfSeries("fig2: 802.11ac client throughput CDF (Mbps)", ac.samples, 41),
		},
		Notes: []string{
			note("802.11af median %.2f Mbps vs 802.11ac %.2f Mbps — the paper's Figure 2 gap direction",
				af.cdf.Median(), ac.cdf.Median()),
		},
	}
}
