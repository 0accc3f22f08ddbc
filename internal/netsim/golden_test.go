package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"cellfi/internal/topo"
)

// goldenIMDense pins the im_dense benchmark world — topo.Paper(200, 10)
// on a 6 km square, CellFi, every client backlogged — after five Steps:
// an 8-byte SHA-256 prefix over the float bits of ThroughputsMbps (the
// benchmark's own sim_digest) and the hop count. Seed 1 is the seed the
// benchmark runs; seed 7 is held out.
var goldenIMDense = map[int64]struct {
	digest string
	hops   int
}{
	1: {"1275f69fb91061d4", 49},
	7: {"d9e991302aeb0c2a", 44},
}

// goldenSmall pins a topo.Paper(8, 4) world at seed 1 after six Steps
// for every scheme in every interference mode: an 8-byte SHA-256 prefix
// over each client's DeliveredBits followed by Hops. Together with
// goldenIMDense it covers every path through the SINR kernel — the LTE,
// oracle, random-hop and hybrid schemes as well as CellFi, all-pairs,
// truncated and grid-indexed.
//
// Re-roll: a change that means to move a netsim result runs
//
//	go test -run TestStepGolden -v ./internal/netsim
//
// pastes the printed lines over the tables, and says in CHANGES.md what
// moved and why. A digest that moves without such a reason is a
// regression.
var goldenSmall = map[string]string{
	"lte/all-pairs":        "e7ab06a175c1503e",
	"lte/truncated":        "d1b67d694075bf18",
	"lte/indexed":          "d1b67d694075bf18",
	"cellfi/all-pairs":     "1ecd79dd508df0d3",
	"cellfi/truncated":     "224c20414ccffd0e",
	"cellfi/indexed":       "224c20414ccffd0e",
	"oracle/all-pairs":     "850d94a1593e010f",
	"oracle/truncated":     "61ecd94045a2bb85",
	"oracle/indexed":       "61ecd94045a2bb85",
	"random-hop/all-pairs": "cdefeaa8fb11af47",
	"random-hop/truncated": "b1d5826bad989015",
	"random-hop/indexed":   "b1d5826bad989015",
	"hybrid/all-pairs":     "3c4f1a50844d27b3",
	"hybrid/truncated":     "9ce2625fab07b183",
	"hybrid/indexed":       "9ce2625fab07b183",
}

func throughputDigest(mbps []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range mbps {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func deliveredDigest(n *Network) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, c := range n.Clients {
		put(c.DeliveredBits)
	}
	put(int64(n.Hops))
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestStepGolden(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		p := topo.Paper(200, 10)
		p.AreaSide = 6000
		n := New(topo.Generate(p, seed), DefaultConfig(SchemeCellFi, seed))
		n.Backlog()
		for s := 0; s < 5; s++ {
			n.Step()
		}
		got := throughputDigest(n.ThroughputsMbps())
		t.Logf("im_dense seed %d: {%q, %d},", seed, got, n.Hops)
		if want := goldenIMDense[seed]; got != want.digest || n.Hops != want.hops {
			t.Errorf("im_dense seed %d: digest %s hops %d, golden %s hops %d", seed, got, n.Hops, want.digest, want.hops)
		}
	}

	modes := []struct {
		name    string
		radius  float64
		indexed bool
	}{{"all-pairs", 0, false}, {"truncated", 800, false}, {"indexed", 800, true}}
	tp := topo.Generate(topo.Paper(8, 4), 1)
	for _, scheme := range []Scheme{SchemeLTE, SchemeCellFi, SchemeOracle, SchemeRandomHop, SchemeHybrid} {
		for _, mode := range modes {
			cfg := DefaultConfig(scheme, 1)
			cfg.InterferenceRadiusM = mode.radius
			cfg.UseSpatialIndex = mode.indexed
			n := New(tp, cfg)
			n.Backlog()
			for s := 0; s < 6; s++ {
				n.Step()
			}
			key := scheme.String() + "/" + mode.name
			got := deliveredDigest(n)
			t.Logf("%q: %q,", key, got)
			if want := goldenSmall[key]; got != want {
				t.Errorf("%s: digest %s, golden %s", key, got, want)
			}
		}
	}
}
