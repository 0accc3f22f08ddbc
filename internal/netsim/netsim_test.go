package netsim

import (
	"strings"
	"testing"

	"cellfi/internal/geo"
	"cellfi/internal/stats"
	"cellfi/internal/topo"
)

func runScheme(t *testing.T, s Scheme, seed int64, aps, clients, epochs int) []float64 {
	t.Helper()
	tp := topo.Generate(topo.Paper(aps, clients), seed)
	n := New(tp, DefaultConfig(s, seed))
	return n.Run(epochs)
}

func TestSingleCellFullThroughput(t *testing.T) {
	// One cell, one close client: the client should get a healthy
	// multi-Mbps rate regardless of scheme.
	tp := topo.Generate(topo.Paper(1, 1), 3)
	for _, s := range []Scheme{SchemeLTE, SchemeCellFi, SchemeOracle} {
		n := New(tp, DefaultConfig(s, 3))
		th := n.Run(15)
		if th[0] < 1 {
			t.Errorf("%v: lone client got %.2f Mbps, want multi-Mbps", s, th[0])
		}
	}
}

func TestCellFiAcquiresFullChannelWhenAlone(t *testing.T) {
	tp := topo.Generate(topo.Paper(1, 6), 4)
	n := New(tp, DefaultConfig(SchemeCellFi, 4))
	n.Run(5)
	if got := len(n.Allowed(0)); got != 13 {
		t.Fatalf("isolated CellFi cell holds %d subchannels, want all 13", got)
	}
}

func TestCellFiSharesBudgetWithNeighbour(t *testing.T) {
	// Two overlapping cells, equal clients: shares should settle near
	// half the channel each, and overlap should be rare after
	// convergence.
	p := topo.Paper(2, 6)
	p.AreaSide = 600 // force overlap
	p.MinAPSpacing = 300
	tp := topo.Generate(p, 5)
	n := New(tp, DefaultConfig(SchemeCellFi, 5))
	n.Run(30)
	h0, h1 := n.Allowed(0), n.Allowed(1)
	if len(h0) == 0 || len(h1) == 0 {
		t.Fatalf("a cell ended with nothing: %v / %v", h0, h1)
	}
	if len(h0)+len(h1) > 15 { // 13 + slack for the share floor
		t.Fatalf("shares %d+%d far exceed the channel", len(h0), len(h1))
	}
	in0 := map[int]bool{}
	for _, k := range h0 {
		in0[k] = true
	}
	overlap := 0
	for _, k := range h1 {
		if in0[k] {
			overlap++
		}
	}
	if overlap > 2 {
		t.Fatalf("cells still overlap on %d subchannels after 30 epochs (%v vs %v)",
			overlap, h0, h1)
	}
}

// The headline Figure 9 direction: in a dense deployment CellFi starves
// far fewer clients than unmanaged LTE, without losing total
// throughput, and tracks the oracle.
func TestCellFiReducesStarvationVsLTE(t *testing.T) {
	const aps, clients, epochs = 10, 6, 25
	const starveMbps = 0.05
	agg := func(s Scheme) (starved, total float64) {
		var sum float64
		var starvedN, n int
		for seed := int64(0); seed < 3; seed++ {
			th := runScheme(t, s, 10+seed, aps, clients, epochs)
			for _, v := range th {
				sum += v
				if v < starveMbps {
					starvedN++
				}
				n++
			}
		}
		return float64(starvedN) / float64(n), sum
	}
	lteStarved, lteTotal := agg(SchemeLTE)
	cfStarved, cfTotal := agg(SchemeCellFi)
	orStarved, _ := agg(SchemeOracle)

	if cfStarved >= lteStarved {
		t.Errorf("CellFi starved %.0f%%, LTE %.0f%% — no improvement",
			cfStarved*100, lteStarved*100)
	}
	if cfTotal < 0.6*lteTotal {
		t.Errorf("CellFi total throughput %.1f collapsed vs LTE %.1f", cfTotal, lteTotal)
	}
	if cfStarved > orStarved+0.15 {
		t.Errorf("CellFi starvation %.2f far above oracle %.2f", cfStarved, orStarved)
	}
}

func TestConvergenceHopsSettle(t *testing.T) {
	// The vast majority of hopping happens early (Section 6.3.4: most
	// APs hop only a few times). Sensing false positives keep a low
	// residual hop rate forever, so single seeds are noisy — aggregate
	// a few worlds and compare the first window against a late one.
	var early, late int
	for seed := int64(1); seed <= 5; seed++ {
		tp := topo.Generate(topo.Paper(8, 6), seed)
		n := New(tp, DefaultConfig(SchemeCellFi, seed))
		n.Backlog()
		for e := 0; e < 15; e++ {
			n.Step()
		}
		early += n.Hops
		for e := 0; e < 30; e++ { // let things settle further
			n.Step()
		}
		mark := n.Hops
		for e := 0; e < 15; e++ {
			n.Step()
		}
		late += n.Hops - mark
	}
	if late >= early {
		t.Errorf("hops not settling: %d early vs %d late (5 seeds)", early, late)
	}
}

func TestDynamicTrafficDrainsQueue(t *testing.T) {
	tp := topo.Generate(topo.Paper(2, 3), 7)
	n := New(tp, DefaultConfig(SchemeCellFi, 7))
	n.AddBits(0, 2_000_000) // 2 Mb to the first client
	var served int64
	for e := 0; e < 20 && n.Clients[0].QueuedBits > 0; e++ {
		r := n.Step()
		served += r.ServedBits[0]
	}
	if n.Clients[0].QueuedBits != 0 {
		t.Fatalf("queue not drained: %d bits left", n.Clients[0].QueuedBits)
	}
	if served != 2_000_000 {
		t.Fatalf("served %d bits, want exactly 2,000,000", served)
	}
	if n.Clients[0].DeliveredBits != 2_000_000 {
		t.Fatalf("delivered accounting wrong: %d", n.Clients[0].DeliveredBits)
	}
}

func TestIdleCellsDoNotInterfere(t *testing.T) {
	// Two overlapping cells; only cell 0 has traffic. Cell 1 idle
	// must not depress cell 0's throughput (no data interference).
	p := topo.Paper(2, 1)
	p.AreaSide = 500
	p.MinAPSpacing = 200
	tp := topo.Generate(p, 8)

	n1 := New(tp, DefaultConfig(SchemeLTE, 8))
	n1.AddBits(0, 1<<40)
	var withIdle int64
	for e := 0; e < 10; e++ {
		withIdle += n1.Step().ServedBits[0]
	}

	n2 := New(tp, DefaultConfig(SchemeLTE, 8))
	n2.AddBits(0, 1<<40)
	n2.AddBits(1, 1<<40)
	var withBusy int64
	for e := 0; e < 10; e++ {
		withBusy += n2.Step().ServedBits[0]
	}
	if withBusy >= withIdle {
		t.Fatalf("busy neighbour did not hurt: idle %d vs busy %d", withIdle, withBusy)
	}
}

func TestOracleAssignmentsConflictFree(t *testing.T) {
	p := topo.Paper(6, 4)
	p.AreaSide = 1200 // dense: everyone conflicts with someone
	tp := topo.Generate(p, 9)
	n := New(tp, DefaultConfig(SchemeOracle, 9))
	n.Backlog()
	n.Step()
	// Rebuild the oracle's own conflict rule and assert disjointness
	// across conflicting cells.
	threshold := n.noiseRBDBm + n.Cfg.OracleInterferenceMarginDB
	for i := range n.Cells {
		for j := range n.Cells {
			if i >= j {
				continue
			}
			conflict := false
			for _, c := range n.ClientsOf[i] {
				if n.rxRB[j][c] >= threshold {
					conflict = true
				}
			}
			for _, c := range n.ClientsOf[j] {
				if n.rxRB[i][c] >= threshold {
					conflict = true
				}
			}
			if !conflict {
				continue
			}
			ini := map[int]bool{}
			for _, k := range n.Allowed(i) {
				ini[k] = true
			}
			for _, k := range n.Allowed(j) {
				if ini[k] {
					t.Fatalf("oracle gave conflicting cells %d and %d shared subchannel %d", i, j, k)
				}
			}
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	if SchemeLTE.String() != "lte" || SchemeCellFi.String() != "cellfi" || SchemeOracle.String() != "oracle" {
		t.Fatal("scheme names wrong")
	}
}

func TestThroughputCDFSane(t *testing.T) {
	th := runScheme(t, SchemeCellFi, 11, 6, 6, 15)
	c := stats.NewCDF(th)
	if c.Max() > 14 {
		t.Fatalf("client throughput %.1f Mbps exceeds the 5 MHz TDD ceiling", c.Max())
	}
	if c.Mean() <= 0 {
		t.Fatal("zero mean throughput across the network")
	}
}

func BenchmarkCellFiEpoch(b *testing.B) {
	tp := topo.Generate(topo.Paper(14, 6), 1)
	n := New(tp, DefaultConfig(SchemeCellFi, 1))
	n.Backlog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

func TestRunsDeterministic(t *testing.T) {
	run := func() []float64 {
		tp := topo.Generate(topo.Paper(5, 4), 21)
		n := New(tp, DefaultConfig(SchemeCellFi, 21))
		return n.Run(12)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at client %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestRandomHopSchemeRuns(t *testing.T) {
	th := runScheme(t, SchemeRandomHop, 31, 6, 6, 15)
	c := stats.NewCDF(th)
	if c.Mean() <= 0 {
		t.Fatal("random-hop network delivered nothing")
	}
	if c.Max() > 14 {
		t.Fatalf("rate %f exceeds the carrier ceiling", c.Max())
	}
}

// The ablation direction: bucketed CellFi hops less than the
// memoryless random hopper under identical topology and sensing.
func TestRandomHopChurnsMore(t *testing.T) {
	hops := func(s Scheme) int {
		tp := topo.Generate(topo.Paper(10, 6), 33)
		n := New(tp, DefaultConfig(s, 33))
		n.Run(25)
		return n.Hops
	}
	cf, rh := hops(SchemeCellFi), hops(SchemeRandomHop)
	if rh <= cf {
		t.Fatalf("random hopper hopped less (%d) than CellFi (%d)", rh, cf)
	}
}

func TestHybridSchemeRuns(t *testing.T) {
	tp := topo.Generate(topo.Paper(8, 6), 35)
	n := New(tp, DefaultConfig(SchemeHybrid, 35))
	th := n.Run(20)
	c := stats.NewCDF(th)
	if c.Mean() <= 0 {
		t.Fatal("hybrid network delivered nothing")
	}
	// Intra-provider assignments must be conflict-free: two cells of
	// the same provider that conflict may not share a subchannel.
	threshold := n.noiseRBDBm + n.Cfg.OracleInterferenceMarginDB
	for i := range n.Cells {
		for j := range n.Cells {
			if i >= j || n.providers[i] != n.providers[j] {
				continue
			}
			conflict := false
			for _, c := range n.ClientsOf[i] {
				if n.rxRB[j][c] >= threshold {
					conflict = true
				}
			}
			for _, c := range n.ClientsOf[j] {
				if n.rxRB[i][c] >= threshold {
					conflict = true
				}
			}
			if !conflict {
				continue
			}
			ini := map[int]bool{}
			for _, k := range n.Allowed(i) {
				ini[k] = true
			}
			for _, k := range n.Allowed(j) {
				if ini[k] {
					t.Fatalf("same-provider conflicting cells %d and %d share subchannel %d", i, j, k)
				}
			}
		}
	}
}

// Hybrid should not starve more clients than plain CellFi: the
// centralized intra-provider stage can only help.
func TestHybridAtLeastAsGoodAsCellFi(t *testing.T) {
	starved := func(s Scheme) int {
		n := 0
		for seed := int64(0); seed < 3; seed++ {
			tp := topo.Generate(topo.Paper(10, 6), 40+seed)
			net := New(tp, DefaultConfig(s, 40+seed))
			for _, v := range net.Run(20) {
				if v < 0.05 {
					n++
				}
			}
		}
		return n
	}
	cf, hy := starved(SchemeCellFi), starved(SchemeHybrid)
	if hy > cf+6 { // small tolerance: different random draws
		t.Fatalf("hybrid starved %d clients vs CellFi's %d", hy, cf)
	}
}

func TestZeroClientTopology(t *testing.T) {
	tp := topo.Generate(topo.Paper(3, 0), 50)
	for _, s := range []Scheme{SchemeLTE, SchemeCellFi, SchemeOracle, SchemeHybrid, SchemeRandomHop} {
		n := New(tp, DefaultConfig(s, 50))
		th := n.Run(3)
		if len(th) != 0 {
			t.Fatalf("%v: throughputs for zero clients: %v", s, th)
		}
	}
}

func TestSingleEpochRun(t *testing.T) {
	tp := topo.Generate(topo.Paper(2, 2), 51)
	n := New(tp, DefaultConfig(SchemeCellFi, 51))
	th := n.Run(1)
	if len(th) != 4 {
		t.Fatalf("throughput vector length %d", len(th))
	}
}

func TestMixedIdleCells(t *testing.T) {
	// Only the first cell's clients have traffic: others must not
	// accumulate deliveries, and the busy cell must thrive.
	tp := topo.Generate(topo.Paper(4, 3), 52)
	n := New(tp, DefaultConfig(SchemeCellFi, 52))
	for _, ci := range n.ClientsOf[0] {
		n.Clients[ci].Backlogged = true
		n.Clients[ci].QueuedBits = 1 << 40
	}
	for e := 0; e < 10; e++ {
		n.Step()
	}
	for i := 1; i < 4; i++ {
		for _, ci := range n.ClientsOf[i] {
			if n.Clients[ci].DeliveredBits != 0 {
				t.Fatalf("idle client %d delivered bits", ci)
			}
		}
	}
	var busy int64
	for _, ci := range n.ClientsOf[0] {
		busy += n.Clients[ci].DeliveredBits
	}
	if busy == 0 {
		t.Fatal("busy cell starved while alone on the channel")
	}
	// An alone-active CellFi cell should expand toward the whole
	// channel (everyone else's clients are inactive, so the PRACH
	// census sees only its own).
	if got := len(n.Allowed(0)); got < 10 {
		t.Fatalf("lone busy cell holds only %d subchannels", got)
	}
}

func TestUplinkThroughputs(t *testing.T) {
	tp := topo.Generate(topo.Paper(6, 4), 60)
	cf := New(tp, DefaultConfig(SchemeCellFi, 60))
	ul := cf.UplinkThroughputs(15)
	if len(ul) != 24 {
		t.Fatalf("uplink vector length %d", len(ul))
	}
	positive := 0
	for _, v := range ul {
		if v < 0 {
			t.Fatal("negative uplink throughput")
		}
		if v > 4 { // 5 MHz TDD uplink fraction is 0.2: ceiling ~3.5 Mbps
			t.Fatalf("uplink %f Mbps exceeds the TDD uplink ceiling", v)
		}
		if v > 0.01 {
			positive++
		}
	}
	if positive < len(ul)/2 {
		t.Fatalf("only %d/%d clients got uplink service", positive, len(ul))
	}
}

// The reservations help uplink too: CellFi's uplink starves fewer
// clients than unmanaged LTE's (where every cell's clients splatter
// the whole carrier).
func TestUplinkCellFiVsLTE(t *testing.T) {
	starved := func(s Scheme) int {
		n := 0
		for seed := int64(0); seed < 3; seed++ {
			tp := topo.Generate(topo.Paper(10, 6), 61+seed)
			net := New(tp, DefaultConfig(s, 61+seed))
			for _, v := range net.UplinkThroughputs(15) {
				if v < 0.01 {
					n++
				}
			}
		}
		return n
	}
	cf, plain := starved(SchemeCellFi), starved(SchemeLTE)
	if cf >= plain {
		t.Fatalf("CellFi uplink starved %d >= LTE %d", cf, plain)
	}
}

func TestMobilityHandoversHappen(t *testing.T) {
	tp := topo.Generate(topo.Paper(8, 4), 70)
	n := New(tp, DefaultConfig(SchemeCellFi, 70))
	mob := DefaultMobility()
	mob.SpeedMps = 40 // vehicular, to force handovers quickly
	mob.PauseEpochs = 0
	n.EnableMobility(mob)
	th := n.Run(40)
	if n.Handovers() == 0 {
		t.Fatal("vehicular clients never handed over")
	}
	// Rosters stay consistent.
	seen := map[int]bool{}
	total := 0
	for i, cs := range n.ClientsOf {
		for _, c := range cs {
			if n.Clients[c].Cell != i {
				t.Fatalf("client %d in roster %d but Cell=%d", c, i, n.Clients[c].Cell)
			}
			if seen[c] {
				t.Fatalf("client %d in two rosters", c)
			}
			seen[c] = true
			total++
		}
	}
	if total != len(n.Clients) {
		t.Fatalf("rosters cover %d of %d clients", total, len(n.Clients))
	}
	// Service continues under mobility.
	starved := 0
	for _, v := range th {
		if v < 0.05 {
			starved++
		}
	}
	if starved > len(th)/2 {
		t.Fatalf("%d/%d mobile clients starved — roaming broken", starved, len(th))
	}
}

func TestMobilityHysteresis(t *testing.T) {
	// Pedestrian speed with a big margin: handovers should be rare.
	tp := topo.Generate(topo.Paper(8, 4), 71)
	slow := New(tp, DefaultConfig(SchemeCellFi, 71))
	cfg := DefaultMobility()
	cfg.HandoverMarginDB = 12
	slow.EnableMobility(cfg)
	slow.Run(30)

	tp2 := topo.Generate(topo.Paper(8, 4), 71)
	eager := New(tp2, DefaultConfig(SchemeCellFi, 71))
	cfg2 := DefaultMobility()
	cfg2.HandoverMarginDB = 0
	eager.EnableMobility(cfg2)
	eager.Run(30)

	if slow.Handovers() > eager.Handovers() {
		t.Fatalf("hysteresis increased handovers: %d vs %d", slow.Handovers(), eager.Handovers())
	}
}

func TestMobilityDeterministic(t *testing.T) {
	run := func() (int, float64) {
		tp := topo.Generate(topo.Paper(5, 3), 72)
		n := New(tp, DefaultConfig(SchemeCellFi, 72))
		n.EnableMobility(DefaultMobility())
		th := n.Run(15)
		var sum float64
		for _, v := range th {
			sum += v
		}
		return n.Handovers(), sum
	}
	h1, s1 := run()
	h2, s2 := run()
	if h1 != h2 || s1 != s2 {
		t.Fatal("mobile runs not deterministic")
	}
}

// A moved client's interference must follow it: the budget refresh has
// to rewrite the mW entries the SINR kernel reads, not only the dB and
// PRACH ones. Teleport a client of cell 0 to 5 m from cell 1 (which
// transmits in every subchannel under plain LTE) and refresh: the SINR
// denominator must jump, and (sig, den) and the dB and PRACH entries
// toward cell 1 must equal what a network built from scratch with the
// client already there computes.
func TestRefreshLinkBudgetMovesSINR(t *testing.T) {
	tp := topo.Generate(topo.Paper(4, 3), 73)
	cfg := DefaultConfig(SchemeLTE, 73)
	n := New(tp, cfg)
	n.Backlog()
	n.Step()
	c := n.ClientsOf[0][0]
	const k, b = 2, 0
	_, denBefore := n.sinrParts(c, k, b, n.prevTx)
	rxBefore, prachBefore := n.rxRB[1][c], n.prachSNR[1][c]

	pos := n.Cells[1].Add(5, 0)
	n.Clients[c].Pos = pos
	n.refreshLinkBudget(c)
	sig, den := n.sinrParts(c, k, b, n.prevTx)
	if den < 100*denBefore {
		t.Fatalf("denominator %g -> %g after moving beside a transmitting cell: interference did not follow the client", denBefore, den)
	}

	moved := *tp
	moved.Clients = append([][]geo.Point(nil), tp.Clients...)
	moved.Clients[0] = append([]geo.Point(nil), tp.Clients[0]...)
	moved.Clients[0][0] = pos
	fresh := New(&moved, cfg)
	fresh.epoch = n.epoch
	if fsig, fden := fresh.sinrParts(c, k, b, n.prevTx); fsig != sig || fden != den {
		t.Fatalf("refreshed (sig, den) = (%g, %g), from-scratch network at the new position (%g, %g)", sig, den, fsig, fden)
	}
	if rx, prach := n.rxRB[1][c], n.prachSNR[1][c]; rx == rxBefore || prach == prachBefore ||
		rx != fresh.rxRB[1][c] || prach != fresh.prachSNR[1][c] {
		t.Fatalf("refreshed dB / PRACH entries (%g, %g), before the move (%g, %g), from-scratch (%g, %g)",
			rx, prach, rxBefore, prachBefore, fresh.rxRB[1][c], fresh.prachSNR[1][c])
	}
}

// denseNetwork is the im_dense benchmark shape: 200 APs x 10 backlogged
// clients at the paper's AP density, CellFi, warmed past convergence.
func denseNetwork(tb testing.TB, indexed bool) *Network {
	tb.Helper()
	p := topo.Paper(200, 10)
	p.AreaSide = 6000
	cfg := DefaultConfig(SchemeCellFi, 1)
	if indexed {
		cfg.InterferenceRadiusM = 800
		cfg.UseSpatialIndex = true
	}
	n := New(topo.Generate(p, 1), cfg)
	n.Backlog()
	for i := 0; i < 10; i++ {
		n.Step()
	}
	return n
}

func benchStepDense(b *testing.B, indexed bool) {
	n := denseNetwork(b, indexed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

// BenchmarkStepDense is one IM epoch at 200 APs x 10 clients, all-pairs.
func BenchmarkStepDense(b *testing.B) { benchStepDense(b, false) }

// BenchmarkStepDenseIndexed is the same world truncated at 800 m through
// the spatial index.
func BenchmarkStepDenseIndexed(b *testing.B) { benchStepDense(b, true) }

// Steady-state Step at the im_dense shape reuses its per-epoch scratch
// (active sets, transmitter lists, controller-input maps, the result
// slice, the fade row table and the SINR kernel's block and interferer
// buffers): what is left is one Controller.Held slice per controller
// update, about 210 a step (209 measured, 5,002 before the scratch
// existed).
func TestStepDenseAllocs(t *testing.T) {
	n := denseNetwork(t, false)
	if allocs := testing.AllocsPerRun(10, func() { n.Step() }); allocs > 250 {
		t.Fatalf("Step allocates %.0f times per epoch at 200 APs x 10 clients, want <= 250", allocs)
	}
}

// ParseScheme inverts Scheme.String for all five schemes and names the
// valid ones when refusing anything else.
func TestParseSchemeRoundTrip(t *testing.T) {
	all := []Scheme{SchemeLTE, SchemeCellFi, SchemeOracle, SchemeRandomHop, SchemeHybrid}
	if len(all) != len(schemeNames) {
		t.Fatalf("%d scheme names for %d schemes", len(schemeNames), len(all))
	}
	for _, s := range all {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, bad := range []string{"", "?", "LTE", "wifi", " cellfi"} {
		_, err := ParseScheme(bad)
		if err == nil {
			t.Errorf("ParseScheme(%q) accepted", bad)
			continue
		}
		for _, s := range all {
			if !strings.Contains(err.Error(), s.String()) {
				t.Errorf("ParseScheme(%q) error %q does not list %q", bad, err, s)
			}
		}
	}
	if got := Scheme(99).String(); got != "?" {
		t.Errorf("Scheme(99).String() = %q, want \"?\"", got)
	}
}
