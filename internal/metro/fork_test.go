package metro

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cellfi/internal/trace"
)

// forkCity is shardCity with four times the UEs: six ueGrain chunks, so
// every phase forks, and a mobility cohort that walks across the slab
// boundaries at two shards.
func forkCity(seed int64, shards int) Config {
	cfg := shardCity(seed, shards)
	cfg.NUEs = 6000
	return cfg
}

// procsRun is what TestMetroWorkerInvariant compares.
type procsRun struct {
	w      *World
	trace  []byte
	msgs   int64
	forked int // most workers of one shard that claimed a chunk
}

// runAtProcs builds and runs a world under GOMAXPROCS procs (restored on
// return) with a recorder attached.
func runAtProcs(t *testing.T, procs int, cfg Config, epochs int) procsRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	w := New(cfg)
	defer w.Close()
	var buf bytes.Buffer
	ring := trace.NewRing(64)
	ring.SpillTo(&buf)
	w.SetRecorder(ring)
	w.Run(epochs)
	if err := ring.Flush(); err != nil {
		t.Fatal(err)
	}
	r := procsRun{w: w, trace: buf.Bytes()}
	if st, ok := w.ShardStats(); ok {
		r.msgs = st.Msgs
	}
	for _, sc := range w.sctx {
		n := 0
		for i := range sc.workers {
			if sc.workers[i].chunks > 0 {
				n++
			}
		}
		r.forked = max(r.forked, n)
	}
	return r
}

// The forked phases' outputs do not depend on the core count: at one
// and two shards, a run at GOMAXPROCS 4 — where at least two workers
// claimed chunks — leaves every UE's state and adjacency row, the AP
// loads, the throughput moments and every sketch rank, the trace bytes
// and the handoff count exactly as the run at GOMAXPROCS 1 (no fork).
func TestMetroWorkerInvariant(t *testing.T) {
	const epochs = 40
	for _, k := range []int{1, 2} {
		cfg := forkCity(7, k)
		one := runAtProcs(t, 1, cfg, epochs)
		four := runAtProcs(t, 4, cfg, epochs)
		if one.forked != 1 {
			t.Fatalf("K=%d: %d workers claimed chunks at GOMAXPROCS 1, want 1", k, one.forked)
		}
		if four.forked < 2 {
			t.Fatalf("K=%d: %d worker claimed chunks at GOMAXPROCS 4: the forked path never ran", k, four.forked)
		}
		a, b := one.w, four.w
		for u := 0; u < cfg.NUEs; u++ {
			ax, ay, ac, ad, aq := a.UEState(u)
			bx, by, bc, bd, bq := b.UEState(u)
			if ax != bx || ay != by || ac != bc || ad != bd || aq != bq {
				t.Fatalf("K=%d UE %d: (%v,%v,%d,%d,%d) at GOMAXPROCS 1, (%v,%v,%d,%d,%d) at 4",
					k, u, ax, ay, ac, ad, aq, bx, by, bc, bd, bq)
			}
			row := func(w *World) (int, []int32, []float32) {
				base, n := u*cfg.MaxNeighbors, int(w.nbrN[u])
				return int(w.ueServI[u]), w.nbrAP[base : base+n], w.nbrRxMW[base : base+n]
			}
			ai, aAP, aRx := row(a)
			bi, bAP, bRx := row(b)
			if ai != bi || !slices.Equal(aAP, bAP) || !slices.Equal(aRx, bRx) {
				t.Fatalf("K=%d UE %d: adjacency row differs between GOMAXPROCS 1 and 4", k, u)
			}
		}
		if !slices.Equal(a.apLoad, b.apLoad) {
			t.Fatalf("K=%d: AP loads differ between GOMAXPROCS 1 and 4", k)
		}
		if at, bt := a.Throughput(), b.Throughput(); at != bt || at.Count == 0 {
			t.Fatalf("K=%d: throughput %+v at GOMAXPROCS 1, %+v at 4", k, at, bt)
		}
		aq, bq := a.ThroughputQ(), b.ThroughputQ()
		n := float64(a.Throughput().Count - 1)
		for r := 0.5; r < n; r++ { // every rank
			if x, y := aq.Quantile(r/n), bq.Quantile(r/n); x != y {
				t.Fatalf("K=%d rank %d: %v Mbps at GOMAXPROCS 1, %v at 4", k, int(r), x, y)
			}
		}
		if !bytes.Equal(one.trace, four.trace) || len(one.trace) == 0 {
			t.Fatalf("K=%d: trace streams differ (%d vs %d bytes)", k, len(one.trace), len(four.trace))
		}
		if one.msgs != four.msgs || (k > 1 && one.msgs == 0) {
			t.Fatalf("K=%d: %d handoffs at GOMAXPROCS 1, %d at 4", k, one.msgs, four.msgs)
		}
	}
}

// testing.AllocsPerRun runs at GOMAXPROCS 1, so TestMetroStepZeroAllocs
// never sees a fork. At GOMAXPROCS 2 each forked phase (mobility and
// the sweep) costs the fork's shared state and one goroutine: measured
// 80 mallocs (once 81) over 20 steps, 4 per step, at 1,500 and at 6,000
// UEs alike. The bound is 3 per phase.
func TestMetroForkedStepAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const steps, perStep = 20, 2 * 3
	for _, nUEs := range []int{1500, 6000} {
		cfg := smallCity(5)
		cfg.NUEs = nUEs
		cfg.MinLoadFrac, cfg.MaxLoadFrac = 0.6, 0.6
		w := New(cfg)
		w.Run(60) // warm: stable buckets, stable loads, grown partials
		if len(w.sctx[0].workers) < 2 {
			t.Fatalf("%d UEs: %d workers, want a forked step", nUEs, len(w.sctx[0].workers))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w.Run(steps)
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got > steps*perStep {
			t.Fatalf("%d UEs: %d mallocs over %d forked steps, want at most %d per step", nUEs, got, steps, perStep)
		}
	}
}

// A run whose end does not fit sim.Time panics instead of wrapping its
// horizon and returning without simulating, at any shard count. The
// cluster goes first: without the check it returns at once, while the
// single slab would loop for ~9e9 epochs.
func TestMetroRunRefusesOverflowingHorizon(t *testing.T) {
	for _, k := range []int{2, 1} {
		cfg := smallCity(1)
		cfg.NAPs, cfg.NUEs, cfg.Shards = 12, 80, k
		w := New(cfg)
		w.Step()
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "sim.Time") {
					t.Fatalf("K=%d: Run past the clock's range recovered %q, want a panic", k, msg)
				}
			}()
			w.Run(int(math.MaxInt64 / int64(epochDur))) // from epoch 1: one past
		}()
		w.Close()
	}
}
