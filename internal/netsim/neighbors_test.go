package netsim

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"cellfi/internal/geo"
	"cellfi/internal/topo"
	"cellfi/internal/trace"
)

// within is the truncation predicate, restated for the brute scans:
// inclusive, on squared distance.
func within(a, b geo.Point, r float64) bool {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx+dy*dy <= r*r
}

// bruteCellsNear scans every cell.
func bruteCellsNear(n *Network, p geo.Point) []int32 {
	var out []int32
	for j, q := range n.Cells {
		if within(q, p, n.Cfg.InterferenceRadiusM) {
			out = append(out, int32(j))
		}
	}
	return out
}

// bruteActiveNear scans every client of the epoch just stepped's active
// lists (n.prevActive after Step's swap).
func bruteActiveNear(n *Network, p geo.Point) []int32 {
	var out []int32
	for _, act := range n.prevActive {
		for _, c := range act {
			if within(n.Clients[c].Pos, p, n.Cfg.InterferenceRadiusM) {
				out = append(out, int32(c))
			}
		}
	}
	slices.Sort(out)
	return out
}

// bruteConflict is the conflict rule over one pair, every client of
// each side tested against the other cell.
func bruteConflict(n *Network, i, j int) bool {
	threshold := n.noiseRBDBm + oracleMarginDB
	r := n.Cfg.InterferenceRadiusM
	for _, pair := range [2][2]int{{i, j}, {j, i}} {
		victim, loud := pair[0], pair[1]
		for _, c := range n.ClientsOf[victim] {
			if within(n.Cells[loud], n.Clients[c].Pos, r) && n.rxDBm(loud, c) >= threshold {
				return true
			}
		}
	}
	return false
}

// checkNeighborhoods compares cellsNear at every client, activeNear at
// every cell and the conflict graph against the brute scans.
func checkNeighborhoods(t *testing.T, name string, n *Network) {
	t.Helper()
	for c, cl := range n.Clients {
		if got, want := n.cellsNear(cl.Pos), bruteCellsNear(n, cl.Pos); !slices.Equal(got, want) {
			t.Fatalf("%s: cellsNear(client %d) = %v, brute %v", name, c, got, want)
		}
	}
	for i, p := range n.Cells {
		if got, want := n.activeNear(p), bruteActiveNear(n, p); !slices.Equal(got, want) {
			t.Fatalf("%s: activeNear(cell %d) = %v, brute %v", name, i, got, want)
		}
	}
	g := n.conflictGraph()
	for i := range n.Cells {
		for j := range n.Cells {
			if i == j {
				continue
			}
			if got, want := g.Adjacent(i, j), bruteConflict(n, i, j); got != want {
				t.Fatalf("%s: conflict(%d, %d) = %v, brute %v", name, i, j, got, want)
			}
		}
	}
}

// TestNeighborhoodsMatchBrute referees the one truncated mode: after
// every Step of 50 static seeds x {CellFi, oracle, hybrid} and of 10
// mobile CellFi seeds (40 m/s, no pause, so neighborhoods change), at
// 800 m — which genuinely truncates on the 2000 m paper topology —
// the grid-backed cellsNear and activeNear equal brute scans with the
// same predicate, in ascending order, and conflictGraph has the brute
// edge set. A third of the clients stay idle and a third drain a finite
// queue, so the active filter has something to drop.
func TestNeighborhoodsMatchBrute(t *testing.T) {
	run := func(scheme Scheme, seed int64, mobile bool, epochs int) {
		cfg := DefaultConfig(scheme, seed)
		cfg.InterferenceRadiusM = 800
		n := New(topo.Generate(topo.Paper(8, 4), seed), cfg)
		for c, cl := range n.Clients {
			switch c % 3 {
			case 1:
				cl.Backlogged = true
				cl.QueuedBits = 1 << 40
			case 2:
				n.AddBits(c, int64(c)*400_000)
			}
		}
		if mobile {
			m := DefaultMobility()
			m.SpeedMps = 40
			m.PauseEpochs = 0
			n.EnableMobility(m)
		}
		for e := 0; e < epochs; e++ {
			n.Step()
			checkNeighborhoods(t, fmt.Sprintf("%v seed %d mobile %v epoch %d", scheme, seed, mobile, e), n)
		}
	}
	for seed := int64(1); seed <= 50; seed++ {
		for _, scheme := range []Scheme{SchemeCellFi, SchemeOracle, SchemeHybrid} {
			run(scheme, seed, false, 6)
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		run(SchemeCellFi, seed, true, 10)
	}
}

// traceRun drives one full netsim run at the given interference radius
// with a trace recorder attached, and returns the trace bytes plus the
// per-client throughputs.
func traceRun(t *testing.T, scheme Scheme, seed int64, radius float64, epochs int) ([]byte, []float64) {
	t.Helper()
	tp := topo.Generate(topo.Paper(8, 4), seed)
	cfg := DefaultConfig(scheme, seed)
	cfg.InterferenceRadiusM = radius
	var buf bytes.Buffer
	ring := trace.NewRing(0)
	ring.SpillTo(&buf)
	cfg.Trace = ring
	th := New(tp, cfg).Run(epochs)
	if err := ring.Close(); err != nil {
		t.Fatalf("trace close: %v", err)
	}
	return buf.Bytes(), th
}

// A radius beyond every pairwise distance must reproduce the historical
// all-pairs run exactly — truncation with nothing to truncate.
func TestTruncationVacuousAtLargeRadius(t *testing.T) {
	traceFull, thFull := traceRun(t, SchemeCellFi, 7, 0, 6)
	traceHuge, thHuge := traceRun(t, SchemeCellFi, 7, 1e9, 6)
	for c := range thFull {
		if thFull[c] != thHuge[c] {
			t.Fatalf("client %d: throughput diverges: full %v truncated-at-1e9 %v",
				c, thFull[c], thHuge[c])
		}
	}
	if !bytes.Equal(traceFull, traceHuge) {
		t.Fatalf("trace streams diverge (%d vs %d bytes)", len(traceFull), len(traceHuge))
	}
}
