package netsim

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"cellfi/internal/topo"
	"cellfi/internal/trace"
)

// workerRun is what TestStepWorkerInvariant compares: per epoch, every
// client's served bits, the cumulative hop and handover counts; and the
// encoded trace stream.
type workerRun struct {
	served          [][]int64
	hops, handovers []int
	trace           []byte
}

// runAtProcs steps a world for epochs under GOMAXPROCS procs (restored
// on return). The world has 24 cells, six shard.Fork chunks, and mixes
// idle, backlogged and finite-queue clients, so cells drop in and out
// of the observe and serve passes.
func runAtProcs(t *testing.T, procs int, cfg Config, mobile, traced bool, epochs int) workerRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var buf bytes.Buffer
	var ring *trace.Ring
	if traced {
		ring = trace.NewRing(0)
		ring.SpillTo(&buf)
		cfg.Trace = ring
	}
	n := New(topo.Generate(topo.Paper(24, 6), cfg.Seed), cfg)
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
	var r workerRun
	for e := 0; e < epochs; e++ {
		r.served = append(r.served, slices.Clone(n.Step().ServedBits))
		r.hops = append(r.hops, n.Hops)
		r.handovers = append(r.handovers, n.Handovers())
	}
	if ring != nil {
		if err := ring.Close(); err != nil {
			t.Fatalf("trace close: %v", err)
		}
	}
	r.trace = buf.Bytes()
	return r
}

// Step's outputs do not depend on the core count: every scheme, with
// and without an interference radius, a mobile world and a traced one
// give the same served bits, hops, handovers and trace bytes at
// GOMAXPROCS 1 (no fork) as at GOMAXPROCS 4.
func TestStepWorkerInvariant(t *testing.T) {
	const epochs = 15
	type world struct {
		name           string
		cfg            Config
		mobile, traced bool
	}
	var worlds []world
	for _, s := range []Scheme{SchemeLTE, SchemeCellFi, SchemeOracle, SchemeRandomHop, SchemeHybrid} {
		for _, radius := range []float64{0, 800} {
			cfg := DefaultConfig(s, 3)
			cfg.InterferenceRadiusM = radius
			worlds = append(worlds, world{name: fmt.Sprintf("%v radius %v", s, radius), cfg: cfg})
		}
	}
	mob := DefaultConfig(SchemeCellFi, 4)
	mob.InterferenceRadiusM = 800
	worlds = append(worlds,
		world{name: "cellfi mobile", cfg: mob, mobile: true},
		world{name: "hybrid traced", cfg: DefaultConfig(SchemeHybrid, 5), traced: true})
	for _, w := range worlds {
		one := runAtProcs(t, 1, w.cfg, w.mobile, w.traced, epochs)
		four := runAtProcs(t, 4, w.cfg, w.mobile, w.traced, epochs)
		for e := 0; e < epochs; e++ {
			if !slices.Equal(one.served[e], four.served[e]) {
				t.Fatalf("%s epoch %d: served bits differ between GOMAXPROCS 1 and 4", w.name, e)
			}
			if one.hops[e] != four.hops[e] || one.handovers[e] != four.handovers[e] {
				t.Fatalf("%s epoch %d: hops %d vs %d, handovers %d vs %d at GOMAXPROCS 1 and 4",
					w.name, e, one.hops[e], four.hops[e], one.handovers[e], four.handovers[e])
			}
		}
		if !bytes.Equal(one.trace, four.trace) {
			t.Fatalf("%s: trace streams differ (%d vs %d bytes)", w.name, len(one.trace), len(four.trace))
		}
		if w.traced && len(one.trace) == 0 {
			t.Fatalf("%s: empty trace", w.name)
		}
		if w.mobile && one.handovers[epochs-1] == 0 {
			t.Fatalf("%s: no handover to compare", w.name)
		}
	}
}
