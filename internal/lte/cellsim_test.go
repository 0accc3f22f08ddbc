package lte

import (
	"testing"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/sim"
)

func newCellSimFixture(seed int64, dists ...float64) (*sim.Engine, *CellSim) {
	eng := sim.NewEngine(seed)
	env := NewEnvironment(seed)
	env.Model.ShadowSigmaDB = 0
	cell := &Cell{
		ID: 1, Pos: geo.Point{}, TxPowerDBm: 30,
		BW: BW5MHz, TDD: TDDConfig4, Activity: FullBuffer,
	}
	var clients []*Client
	for i, d := range dists {
		clients = append(clients, &Client{ID: 100 + i, Pos: geo.Point{X: d}, TxPowerDBm: 20})
	}
	cs := NewCellSim(eng, env, cell, clients)
	cs.Start()
	return eng, cs
}

func TestCellSimServesBacklog(t *testing.T) {
	eng, cs := newCellSimFixture(1, 150)
	cs.Backlog(100, 4_000_000)
	eng.Run(2 * time.Second)
	got := cs.DeliveredBits(100)
	if got != 4_000_000 {
		t.Fatalf("delivered %d of 4,000,000 bits on a clean close link", got)
	}
}

func TestCellSimThroughputNearPeak(t *testing.T) {
	eng, cs := newCellSimFixture(2, 100)
	cs.Backlog(100, 1<<40)
	eng.Run(2 * time.Second)
	rate := float64(cs.DeliveredBits(100)) / 2
	peak := peakRateBps(BW5MHz, TDDConfig4)
	if rate < 0.6*peak {
		t.Fatalf("close-in rate %.1f Mbps below 60%% of the %.1f Mbps peak", rate/1e6, peak/1e6)
	}
	if rate > peak*1.01 {
		t.Fatalf("rate %.1f Mbps exceeds the PHY peak %.1f", rate/1e6, peak/1e6)
	}
}

func TestCellSimSharesAmongClients(t *testing.T) {
	eng, cs := newCellSimFixture(3, 150, 160, 170)
	for _, id := range []int{100, 101, 102} {
		cs.Backlog(id, 1<<40)
	}
	eng.Run(2 * time.Second)
	var min, max int64 = 1 << 62, 0
	for _, id := range []int{100, 101, 102} {
		b := cs.DeliveredBits(id)
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if min == 0 || float64(min)/float64(max) < 0.5 {
		t.Fatalf("PF starved a symmetric client: min %d max %d", min, max)
	}
}

func TestCellSimRespectsAllowedSet(t *testing.T) {
	eng, cs := newCellSimFixture(4, 150)
	cs.Allowed = []int{0, 1} // IM grants only two subchannels
	cs.Backlog(100, 1<<40)
	eng.Run(time.Second)
	rate := float64(cs.DeliveredBits(100))
	full := SubchannelRateBps(BW5MHz, TDDConfig4, 0, 15) + SubchannelRateBps(BW5MHz, TDDConfig4, 1, 15)
	if rate > full*1.05 {
		t.Fatalf("rate %.2f Mbps exceeds the 2-subchannel ceiling %.2f", rate/1e6, full/1e6)
	}
	if rate == 0 {
		t.Fatal("no service over the allowed set")
	}
}

func TestCellSimHARQRecoversAtCellEdge(t *testing.T) {
	// A far client's first transmissions fail regularly; HARQ must
	// still deliver most of the traffic.
	eng, cs := newCellSimFixture(5, 1250)
	cs.Backlog(100, 1<<40)
	eng.Run(2 * time.Second)
	if cs.DeliveredBits(100) == 0 {
		t.Fatal("cell-edge client starved entirely")
	}
	bler := cs.FirstTxBLER()
	if bler <= 0.005 {
		t.Fatalf("first-tx BLER %.3f suspiciously clean at 1.25 km", bler)
	}
	if bler > 0.6 {
		t.Fatalf("first-tx BLER %.2f: link adaptation broken", bler)
	}
}

func TestCellSimConservesBits(t *testing.T) {
	eng, cs := newCellSimFixture(6, 900)
	const offered = int64(2_000_000)
	cs.Backlog(100, offered)
	eng.Run(5 * time.Second)
	delivered := cs.DeliveredBits(100)
	queued := cs.ues[0].sched.BacklogBits
	var inflight int64
	for _, e := range cs.ues[0].harq {
		if e.active {
			inflight += e.bits
		}
	}
	if got := delivered + queued + inflight; got != offered {
		t.Fatalf("bits not conserved: %d delivered + %d queued + %d in flight != %d",
			delivered, queued, inflight, offered)
	}
}

func TestCellSimDeterministic(t *testing.T) {
	run := func() int64 {
		eng, cs := newCellSimFixture(7, 400, 800)
		cs.Backlog(100, 1<<30)
		cs.Backlog(101, 1<<30)
		eng.Run(time.Second)
		return cs.DeliveredBits(100)<<1 ^ cs.DeliveredBits(101)
	}
	if run() != run() {
		t.Fatal("cell simulation not deterministic")
	}
}

// The scheduler ablation at subframe granularity: with frequency-
// selective fading, proportional fair beats round robin by scheduling
// each client on its good sub-bands.
func TestCellSimPFBeatsRRUnderFading(t *testing.T) {
	total := func(sched Scheduler, seed int64) int64 {
		eng, cs := newCellSimFixture(seed, 700, 750, 800, 850)
		cs.Sched = sched
		for _, id := range []int{100, 101, 102, 103} {
			cs.Backlog(id, 1<<40)
		}
		eng.Run(2 * time.Second)
		var sum int64
		for _, id := range []int{100, 101, 102, 103} {
			sum += cs.DeliveredBits(id)
		}
		return sum
	}
	var pf, rr int64
	for seed := int64(0); seed < 3; seed++ {
		pf += total(&ProportionalFair{}, 30+seed)
		rr += total(&RoundRobin{}, 30+seed)
	}
	if pf <= rr {
		t.Fatalf("PF (%d bits) did not beat RR (%d bits) under frequency-selective fading", pf, rr)
	}
}

func TestCellSimUnknownClientPanics(t *testing.T) {
	_, cs := newCellSimFixture(8, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("Backlog on unknown client should panic")
		}
	}()
	cs.Backlog(999, 1)
}

func BenchmarkCellSimSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, cs := newCellSimFixture(int64(i), 200, 500, 900)
		for _, id := range []int{100, 101, 102} {
			cs.Backlog(id, 1<<40)
		}
		eng.Run(time.Second)
	}
}
