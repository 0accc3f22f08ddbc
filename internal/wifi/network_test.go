package wifi

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/phy"
	"cellfi/internal/propagation"
	"cellfi/internal/sim"
)

// quietModel removes shadowing so topologies behave geometrically.
func quietModel(seed int64) *propagation.Model {
	m := propagation.DefaultUrban(seed)
	m.ShadowSigmaDB = 0
	return m
}

// run builds a network, applies setup, keeps all queues backlogged, and
// returns it after d of virtual time.
func run(t *testing.T, params Params, d time.Duration, setup func(n *Network)) *Network {
	t.Helper()
	eng := sim.NewEngine(1)
	n := NewNetwork(eng, quietModel(1), params)
	setup(n)
	// Keep queues topped up: refill every 100 ms.
	top := func() {
		for _, ap := range n.APs() {
			for _, c := range ap.Clients() {
				if ap.QueuedBits(c) < 1<<20 {
					ap.Enqueue(c, 1<<26)
				}
			}
		}
	}
	top()
	eng.EveryAt(0, 100*time.Millisecond, top)
	eng.Run(d)
	return n
}

func throughputMbps(n *Network, ap, cli int, d time.Duration) float64 {
	a := n.APs()[ap]
	return float64(a.DeliveredBits(a.Clients()[cli])) / d.Seconds() / 1e6
}

func TestSingleLinkThroughput(t *testing.T) {
	const dur = 2 * time.Second
	n := run(t, Params11ac20(), dur, func(n *Network) {
		ap := n.AddAP(1, geo.Point{X: 0, Y: 0}, 20)
		n.AddClient(100, geo.Point{X: 30, Y: 0}, 20, ap)
	})
	got := throughputMbps(n, 0, 0, dur)
	// A close-in 802.11ac link with 64 KB aggregates should sustain
	// tens of Mbps (MCS 9 PHY ~87 Mbps minus contention overhead).
	if got < 30 {
		t.Fatalf("single close link = %.1f Mbps, want > 30", got)
	}
	if n.Drops != 0 {
		t.Fatalf("clean link dropped %d aggregates", n.Drops)
	}
}

func TestRateAdaptsToDistance(t *testing.T) {
	const dur = 2 * time.Second
	near := run(t, Params11af20(), dur, func(n *Network) {
		ap := n.AddAP(1, geo.Point{}, 30)
		n.AddClient(100, geo.Point{X: 50, Y: 0}, 30, ap)
	})
	far := run(t, Params11af20(), dur, func(n *Network) {
		ap := n.AddAP(1, geo.Point{}, 30)
		n.AddClient(100, geo.Point{X: 700, Y: 0}, 30, ap)
	})
	nearT := throughputMbps(near, 0, 0, dur)
	farT := throughputMbps(far, 0, 0, dur)
	if farT <= 0 {
		t.Fatal("700 m 802.11af link starved entirely")
	}
	if nearT < 3*farT {
		t.Fatalf("rate adaptation missing: near %.1f vs far %.1f Mbps", nearT, farT)
	}
}

func TestOutOfRangeClientStarves(t *testing.T) {
	const dur = time.Second
	n := run(t, Params11af(), dur, func(n *Network) {
		ap := n.AddAP(1, geo.Point{}, 30)
		n.AddClient(100, geo.Point{X: 5000, Y: 0}, 30, ap)
	})
	if got := throughputMbps(n, 0, 0, dur); got != 0 {
		t.Fatalf("5 km client got %.2f Mbps, want 0", got)
	}
	if n.Drops == 0 {
		t.Fatal("undeliverable traffic should be dropped after retries")
	}
}

func TestCoLocatedPairsShareFairly(t *testing.T) {
	const dur = 2 * time.Second
	n := run(t, Params11ac20(), dur, func(n *Network) {
		ap1 := n.AddAP(1, geo.Point{X: 0, Y: 0}, 20)
		n.AddClient(100, geo.Point{X: 20, Y: 0}, 20, ap1)
		ap2 := n.AddAP(2, geo.Point{X: 0, Y: 40}, 20)
		n.AddClient(101, geo.Point{X: 20, Y: 40}, 20, ap2)
	})
	t1 := throughputMbps(n, 0, 0, dur)
	t2 := throughputMbps(n, 1, 0, dur)
	if t1 == 0 || t2 == 0 {
		t.Fatalf("starvation between co-located pairs: %.1f / %.1f", t1, t2)
	}
	ratio := t1 / t2
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("unfair share between equal contenders: %.1f vs %.1f Mbps", t1, t2)
	}
	// CSMA serializes them: the sum must be well below 2x an isolated
	// link but in the same ballpark as one.
	solo := run(t, Params11ac20(), dur, func(n *Network) {
		ap := n.AddAP(1, geo.Point{}, 20)
		n.AddClient(100, geo.Point{X: 20, Y: 0}, 20, ap)
	})
	soloT := throughputMbps(solo, 0, 0, dur)
	if t1+t2 > 1.2*soloT {
		t.Fatalf("two contenders sum %.1f > isolated %.1f: medium not shared", t1+t2, soloT)
	}
	if t1+t2 < 0.6*soloT {
		t.Fatalf("contention overhead too brutal: sum %.1f vs isolated %.1f", t1+t2, soloT)
	}
}

// Hidden terminals: two APs out of carrier-sense range transmitting to
// clients in the middle. Without RTS/CTS the middle suffers constant
// collisions; RTS/CTS recovers much of it. This is the long-link
// pathology of Section 3.2.
func TestHiddenTerminal(t *testing.T) {
	const dur = 2 * time.Second
	build := func(rts bool) *Network {
		p := Params11af20()
		p.RTSCTS = rts
		return run(t, p, dur, func(n *Network) {
			// APs 1 km apart: beyond the ~785 m carrier-sense
			// range at 30 dBm, so they cannot hear each other.
			// Both clients sit in the middle, ~500 m from each AP,
			// where the two signals are equally strong and any
			// overlap is fatal — but a CTS from a client does
			// reach the foreign AP and set its NAV.
			ap1 := n.AddAP(1, geo.Point{X: 0, Y: 0}, 30)
			n.AddClient(100, geo.Point{X: 500, Y: 30}, 30, ap1)
			ap2 := n.AddAP(2, geo.Point{X: 1000, Y: 0}, 30)
			n.AddClient(101, geo.Point{X: 500, Y: -30}, 30, ap2)
		})
	}
	with := build(true)
	without := build(false)
	sumWith := throughputMbps(with, 0, 0, dur) + throughputMbps(with, 1, 0, dur)
	sumWithout := throughputMbps(without, 0, 0, dur) + throughputMbps(without, 1, 0, dur)
	if sumWithout >= 0.8*sumWith {
		t.Fatalf("RTS/CTS should help hidden terminals: with %.2f vs without %.2f Mbps",
			sumWith, sumWithout)
	}
}

// Exposed terminals: APs hear each other but serve clients on opposite
// sides, so their transmissions would not actually collide. CSMA
// needlessly serializes them and the pair achieves roughly half of the
// two independent links — CellFi's motivation for reservation instead
// of carrier sense.
func TestExposedTerminal(t *testing.T) {
	const dur = 2 * time.Second
	pairApart := func(apart float64) float64 {
		n := run(t, Params11af20(), dur, func(n *Network) {
			ap1 := n.AddAP(1, geo.Point{X: 0, Y: 0}, 30)
			n.AddClient(100, geo.Point{X: -400, Y: 0}, 30, ap1) // west
			ap2 := n.AddAP(2, geo.Point{X: apart, Y: 0}, 30)
			n.AddClient(101, geo.Point{X: apart + 400, Y: 0}, 30, ap2) // east
		})
		return throughputMbps(n, 0, 0, dur) + throughputMbps(n, 1, 0, dur)
	}
	exposed := pairApart(400)     // APs sense each other; clients point away
	independent := pairApart(1e5) // effectively separate networks
	if exposed > 0.7*independent {
		t.Fatalf("exposed terminals should serialize: exposed %.2f vs independent %.2f Mbps",
			exposed, independent)
	}
}

func TestQueueConservation(t *testing.T) {
	eng := sim.NewEngine(2)
	n := NewNetwork(eng, quietModel(2), Params11ac20())
	ap := n.AddAP(1, geo.Point{}, 20)
	cli := n.AddClient(100, geo.Point{X: 25, Y: 0}, 20, ap)
	const bits = int64(4 << 20)
	ap.Enqueue(cli, bits)
	eng.Run(5 * time.Second)
	if got := ap.DeliveredBits(cli) + ap.QueuedBits(cli); got != bits {
		t.Fatalf("bits not conserved: delivered+queued = %d, enqueued %d", got, bits)
	}
	if ap.QueuedBits(cli) != 0 {
		t.Fatalf("%d bits still queued on an idle clean channel", ap.QueuedBits(cli))
	}
}

// A queue that is not a whole number of bytes drains in one TXOP that
// carries its last partial byte and credits exactly the queued bits. A
// payload truncated to whole bytes left 4 of 12 bits stuck behind an
// endless run of zero-byte TXOPs, each counted in TXOPs and airtime.
func TestPartialByteQueueDrains(t *testing.T) {
	eng := sim.NewEngine(4)
	p := Params11ac20()
	n := NewNetwork(eng, quietModel(4), p)
	ap := n.AddAP(1, geo.Point{}, 20)
	cli := n.AddClient(100, geo.Point{X: 25, Y: 0}, 20, ap)
	ap.Enqueue(cli, 12)
	eng.Run(100 * time.Millisecond)
	if d, q := ap.DeliveredBits(cli), ap.QueuedBits(cli); d != 12 || q != 0 {
		t.Fatalf("delivered %d, queued %d bits; want 12 and 0", d, q)
	}
	st := n.Stats()
	if st.TXOPs != 1 || st.Failures != 0 || st.DeliveredBits != 12 {
		t.Fatalf("stats %+v: want one TXOP delivering 12 bits", st)
	}
	mcs, _ := phy.WiFiMCSFromSINR(n.rxPowerDBm(ap, cli) - n.noiseDBm() - p.LinkMarginDB)
	if want := p.FrameDuration(2, mcs) - p.PreambleDur; st.DataAirtime != want {
		t.Fatalf("data airtime %v, want one 2-byte frame's %v", st.DataAirtime, want)
	}
}

func TestEnqueueOnNonAPPanics(t *testing.T) {
	eng := sim.NewEngine(3)
	n := NewNetwork(eng, quietModel(3), Params11ac20())
	ap := n.AddAP(1, geo.Point{}, 20)
	cli := n.AddClient(100, geo.Point{X: 10, Y: 0}, 20, ap)
	defer func() {
		if recover() == nil {
			t.Fatal("Enqueue on client should panic")
		}
	}()
	cli.Enqueue(ap, 100)
}

func TestAPRoundRobinsClients(t *testing.T) {
	const dur = 2 * time.Second
	n := run(t, Params11ac20(), dur, func(n *Network) {
		ap := n.AddAP(1, geo.Point{}, 20)
		n.AddClient(100, geo.Point{X: 30, Y: 0}, 20, ap)
		n.AddClient(101, geo.Point{X: 0, Y: 30}, 20, ap)
		n.AddClient(102, geo.Point{X: -30, Y: 0}, 20, ap)
	})
	var min, max float64 = 1e18, 0
	for i := 0; i < 3; i++ {
		tp := throughputMbps(n, 0, i, dur)
		if tp < min {
			min = tp
		}
		if tp > max {
			max = tp
		}
	}
	if min <= 0 || min/max < 0.7 {
		t.Fatalf("intra-AP sharing unfair: min %.1f max %.1f Mbps", min, max)
	}
}

func TestParamsFrameMath(t *testing.T) {
	p := Params11ac20()
	m := phy.WiFiMCS(9)
	d := p.FrameDuration(65*1024, m)
	if d <= p.PreambleDur {
		t.Fatal("frame duration must exceed preamble")
	}
	back := p.MaxPayloadForDuration(d, m)
	if back < 65*1024-100 || back > 65*1024 {
		t.Fatalf("payload round trip: %d bytes from duration %v", back, d)
	}
	if p.MaxPayloadForDuration(p.PreambleDur/2, m) != 0 {
		t.Fatal("sub-preamble duration should fit nothing")
	}
}

func BenchmarkWiFiTwoPairSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(i))
		n := NewNetwork(eng, quietModel(1), Params11af20())
		ap1 := n.AddAP(1, geo.Point{}, 30)
		c1 := n.AddClient(100, geo.Point{X: 400, Y: 0}, 30, ap1)
		ap2 := n.AddAP(2, geo.Point{X: 900, Y: 0}, 30)
		c2 := n.AddClient(101, geo.Point{X: 1300, Y: 0}, 30, ap2)
		ap1.Enqueue(c1, 1<<30)
		ap2.Enqueue(c2, 1<<30)
		eng.Run(time.Second)
	}
}

func TestMACStatsAccounting(t *testing.T) {
	const dur = time.Second
	n := run(t, Params11ac20(), dur, func(n *Network) {
		ap := n.AddAP(1, geo.Point{}, 20)
		n.AddClient(100, geo.Point{X: 30, Y: 0}, 20, ap)
	})
	st := n.Stats()
	if st.TXOPs == 0 {
		t.Fatal("no TXOPs recorded")
	}
	if st.DeliveredBits == 0 {
		t.Fatal("no delivered bits recorded")
	}
	// Clean single link: negligible collisions, and control overhead
	// exists but stays a minority share with 64 KB aggregates.
	if st.CollisionRate() > 0.05 {
		t.Fatalf("collision rate %.2f on a clean link", st.CollisionRate())
	}
	if controlOverhead(st) <= 0 || controlOverhead(st) > 0.5 {
		t.Fatalf("control overhead %.2f out of expected range", controlOverhead(st))
	}
	if st.DataAirtime+st.ControlAirtime > dur {
		t.Fatal("airtime exceeds wall clock on one channel")
	}
}

// controlOverhead is the fraction of airtime spent on control frames
// and preambles rather than data payloads.
func controlOverhead(s MACStats) float64 {
	return float64(s.ControlAirtime) / float64(s.DataAirtime+s.ControlAirtime)
}

// The 802.11af overhead argument in numbers: with the same payloads,
// the down-clocked PHY spends a far larger airtime fraction on
// control (preambles stretch 4x, basic rate drops 4x).
func TestAfControlOverheadExceedsAc(t *testing.T) {
	const dur = time.Second
	overhead := func(p Params) float64 {
		n := run(t, p, dur, func(n *Network) {
			ap := n.AddAP(1, geo.Point{}, 20)
			n.AddClient(100, geo.Point{X: 30, Y: 0}, 20, ap)
		})
		return controlOverhead(n.Stats())
	}
	ac := overhead(Params11ac20())
	af := overhead(Params11af20())
	if af <= ac {
		t.Fatalf("802.11af control overhead %.3f not above 802.11ac's %.3f", af, ac)
	}
}

// Every directed pair's received power, in dBm and in mW, must be the
// model's value computed directly, bit for bit — including pairs whose
// nodes registered after the table was filled, which re-strides it and
// copies the filled rows across.
func TestLinkTableMatchesModel(t *testing.T) {
	model := propagation.DefaultUrban(7) // shadowing on: every pair differs
	n := NewNetwork(sim.NewEngine(1), model, Params11af())
	rng := rand.New(rand.NewSource(1))
	register := func(k int) {
		for i := 0; i < k; i++ {
			pos := geo.Point{X: rng.Float64() * 2000, Y: rng.Float64() * 2000}
			txDBm := 10 + rng.Float64()*20
			if i%3 == 0 {
				n.AddAP(len(n.nodes), pos, txDBm)
			} else {
				n.AddClient(len(n.nodes), pos, txDBm, n.APs()[len(n.APs())-1])
			}
		}
	}
	check := func(stage string) {
		for _, tx := range n.nodes {
			for _, rx := range n.nodes {
				loss := model.LinkLossDB(tx.Pos, rx.Pos)
				wantDBm := tx.TxPowerDBm - loss
				wantMW := propagation.DBmToMW(tx.TxPowerDBm) * propagation.DBmToMW(-loss)
				if got := n.rxPowerDBm(tx, rx); math.Float64bits(got) != math.Float64bits(wantDBm) {
					t.Fatalf("%s: rxPowerDBm(%v, %v) = %v, model %v", stage, tx, rx, got, wantDBm)
				}
				if got := n.rxPowerMW(tx, rx); math.Float64bits(got) != math.Float64bits(wantMW) {
					t.Fatalf("%s: rxPowerMW(%v, %v) = %v, model %v", stage, tx, rx, got, wantMW)
				}
			}
		}
		if n.stride != len(n.nodes) || len(n.links) != n.stride*n.stride {
			t.Fatalf("%s: stride %d, %d entries for %d nodes", stage, n.stride, len(n.links), len(n.nodes))
		}
	}
	register(6)
	check("first fill")
	register(5)
	check("after one re-stride")
	register(9)
	check("after a second")
}

// Energy detect in mW must flip at exactly the float64 the dBm compare
// does. Within ±64 ulps of every Params constructor's edMW, x >= edMW
// agrees with MWToDBm(x) >= EnergyDetectDBm, so edMW is the first power
// that reaches the threshold. phy's TestLTECQILinearThresholdULPs walks
// the CQI thresholds the same search produces.
func TestEnergyDetectThresholdULPs(t *testing.T) {
	for _, p := range []Params{Params11ac20(), Params11af(), Params11af20()} {
		n := NewNetwork(sim.NewEngine(1), quietModel(1), p)
		_, ed := n.thresholdsMW()
		x := ed
		for k := 0; k < 64; k++ {
			x = math.Nextafter(x, 0)
		}
		for k := -64; k <= 64; k++ {
			if got, want := x >= ed, propagation.MWToDBm(x) >= p.EnergyDetectDBm; got != want {
				t.Errorf("%s: %+d ulps from edMW (%b mW): linear %v, dBm %v", p.Name, k, x, got, want)
			}
			x = math.Nextafter(x, math.Inf(1))
		}
	}
}

func TestMACStatsEmpty(t *testing.T) {
	var st MACStats
	if st.CollisionRate() != 0 {
		t.Fatal("zero stats should be a zero collision rate")
	}
}

// Every node's NAV hear list must be exactly the nodes a brute canHear
// scan finds, in registration order — on random topologies, and still
// after a node registers mid-run (the link table re-strides), after a
// node's TxPowerDBm is reassigned and after the carrier-sense threshold
// moves.
func TestHearListMatchesCanHear(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		eng := sim.NewEngine(seed)
		n := NewNetwork(eng, propagation.DefaultUrban(seed), Params11af20()) // RTS/CTS on
		rng := rand.New(rand.NewSource(seed))
		register := func(k int) {
			for i := 0; i < k; i++ {
				pos := geo.Point{X: rng.Float64() * 1500, Y: rng.Float64() * 1500}
				txDBm := 10 + rng.Float64()*20
				if i%3 == 0 {
					n.AddAP(len(n.nodes), pos, txDBm)
				} else {
					c := n.AddClient(len(n.nodes), pos, txDBm, n.APs()[len(n.APs())-1])
					n.APs()[len(n.APs())-1].Enqueue(c, 1<<30)
				}
			}
		}
		partial := 0
		check := func(stage string) {
			for _, tx := range n.nodes {
				var want []*Node
				for _, rx := range n.nodes {
					if rx != tx && n.canHear(tx, rx) {
						want = append(want, rx)
					}
				}
				got := n.hearList(tx)
				if len(got) != len(want) {
					t.Fatalf("seed %d, %s: %v hears %d nodes, canHear finds %d", seed, stage, tx, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d, %s: %v hear list[%d] = %v, canHear finds %v", seed, stage, tx, i, got[i], want[i])
					}
				}
				if len(want) > 0 && len(want) < len(n.nodes)-1 {
					partial++
				}
			}
		}
		register(12)
		check("first build")
		eng.Run(200 * time.Millisecond)
		register(7)
		check("after a mid-run registration")
		eng.Run(400 * time.Millisecond)
		for i := 0; i < len(n.nodes); i += 2 {
			n.nodes[i].TxPowerDBm -= 8
		}
		check("after TxPowerDBm changed")
		n.Params.CSThresholdDBm += 6
		check("after CSThresholdDBm changed")
		eng.Run(600 * time.Millisecond)
		if n.Stats().TXOPs == 0 {
			t.Fatalf("seed %d: no exchange completed; the run exercises no NAV", seed)
		}
		if partial == 0 {
			t.Fatalf("seed %d: every hear list is empty or complete; the topology is degenerate", seed)
		}
	}
}
