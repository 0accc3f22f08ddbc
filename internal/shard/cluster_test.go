package shard

import (
	"bytes"
	"testing"
	"time"

	"cellfi/internal/sim"
	"cellfi/internal/trace"
)

const win = 250 * time.Millisecond

// buildCascade schedules a deterministic event cascade on an engine:
// tickers that spawn follow-up events, exercising same-instant
// tie-breaks and window-boundary timestamps.
func buildCascade(e *sim.Engine, fired *int) {
	e.EveryAt(win, win, func() {
		*fired++
		if e.Now() < 2*time.Second {
			e.After(win/5, func() { *fired++ })
			e.Schedule(e.Now()+win, func() { *fired++ }) // exactly on a boundary
		}
	})
	for i := 0; i < 16; i++ {
		at := sim.Time(i) * 333 * time.Millisecond
		e.Schedule(at, func() { *fired++ })
	}
}

// A K=1 cluster must reproduce a plain single-engine run exactly —
// same firing count, same trace bytes. This pins the windowed executor
// to today's engine semantics the way scheduler_ref_test.go pinned the
// scheduler rewrite.
func TestClusterK1MatchesPlainEngine(t *testing.T) {
	const until = 3 * time.Second

	var refBuf bytes.Buffer
	refRing := trace.NewRing(64)
	refRing.SpillTo(&refBuf)
	ref := sim.NewEngine(42)
	ref.SetRecorder(refRing)
	refFired := 0
	buildCascade(ref, &refFired)
	ref.RunBefore(until)
	if err := refRing.Flush(); err != nil {
		t.Fatal(err)
	}

	var cluBuf bytes.Buffer
	cluRing := trace.NewRing(64)
	cluRing.SpillTo(&cluBuf)
	c := New(Config{Shards: 1, Window: win, Seed: 42})
	defer c.Close()
	c.Shard(0).Engine.SetRecorder(cluRing)
	cluFired := 0
	buildCascade(c.Shard(0).Engine, &cluFired)
	c.Run(until)
	if err := cluRing.Flush(); err != nil {
		t.Fatal(err)
	}

	if refFired == 0 || cluFired != refFired {
		t.Fatalf("K=1 cluster fired %d callbacks, plain engine %d", cluFired, refFired)
	}
	if !bytes.Equal(refBuf.Bytes(), cluBuf.Bytes()) {
		t.Fatalf("K=1 cluster trace (%d bytes) differs from plain engine trace (%d bytes)",
			cluBuf.Len(), refBuf.Len())
	}
}

// ringWorld is the cross-shard test workload: N cells with integer
// state, each owned by one shard. Every window each shard reads its
// own cells and sends a commutative delta to the successor cell's
// owner; the handler applies deltas at barriers. Cell updates commute,
// so the final state must be identical at every shard count.
type ringWorld struct {
	cells []int64
	k     int
}

func (w *ringWorld) owner(cell int) int { return cell * w.k / len(w.cells) }

func runRing(t *testing.T, k, cells, windows int, seed int64) []int64 {
	t.Helper()
	w := &ringWorld{cells: make([]int64, cells), k: k}
	for i := range w.cells {
		w.cells[i] = int64(i)*7 + seed
	}
	c := New(Config{
		Shards: k,
		Window: win,
		Seed:   seed,
		Handler: func(dst int, m Msg) {
			w.cells[m.Args[0]] += m.Args[1]
		},
	})
	defer c.Close()
	for s := 0; s < k; s++ {
		c.Shard(s).Engine.EveryAt(win, win, func() {
			sh := c.Shard(s)
			at := sh.Engine.Now() + win
			for i := range w.cells {
				if w.owner(i) != s {
					continue
				}
				next := (i + 1) % len(w.cells)
				sh.Send(Msg{
					At:   at,
					Dst:  int32(w.owner(next)),
					Kind: 1,
					Args: [4]int64{int64(next), w.cells[i]%11 + 1},
				})
			}
		})
	}
	c.Run(sim.Time(windows) * win)
	st := c.Stats()
	if st.Windows != int64(windows) {
		t.Fatalf("k=%d: ran %d windows, want %d", k, st.Windows, windows)
	}
	if k > 1 && st.Msgs == 0 {
		t.Fatalf("k=%d: no cross-shard messages exchanged — vacuous test", k)
	}
	return w.cells
}

// The same seed must produce identical state at shard counts 1, 2, 4
// and 8 — worker scheduling must not be observable.
func TestClusterCrossShardCountInvariance(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ref := runRing(t, 1, 24, 40, seed)
		for _, k := range []int{2, 4, 8} {
			got := runRing(t, k, 24, 40, seed)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d k=%d: cell %d = %d, want %d (k=1)", seed, k, i, got[i], ref[i])
				}
			}
		}
	}
}

// Repeated runs at the same shard count must be identical too (the
// plain determinism leg, meaningful under -race).
func TestClusterSameSeedDeterminism(t *testing.T) {
	a := runRing(t, 4, 32, 60, 9)
	b := runRing(t, 4, 32, 60, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d: run A %d, run B %d", i, a[i], b[i])
		}
	}
}

// Sending inside the current window violates the conservative
// lookahead contract and must panic rather than silently misorder.
func TestSendLookaheadViolationPanics(t *testing.T) {
	c := New(Config{Shards: 2, Window: win, Seed: 1, Handler: func(int, Msg) {}})
	defer c.Close()
	panicked := make(chan bool, 1)
	c.Shard(0).Engine.Schedule(10*time.Millisecond, func() {
		defer func() { panicked <- recover() != nil }()
		c.Shard(0).Send(Msg{At: 20 * time.Millisecond, Dst: 1})
	})
	c.Run(win)
	if !<-panicked {
		t.Fatal("in-window send did not panic")
	}
}

// Telemetry sanity: busy and wall accumulate, utilization stays in
// [0, 1], and stall never exceeds wall.
func TestClusterStats(t *testing.T) {
	c := New(Config{Shards: 3, Window: win, Seed: 1})
	defer c.Close()
	for s := 0; s < 3; s++ {
		c.Shard(s).Engine.EveryAt(win/10, win/10, func() {
			x := 0
			for i := 0; i < 1000; i++ {
				x += i
			}
			_ = x
		})
	}
	c.Run(10 * win)
	st := c.Stats()
	if st.Shards != 3 || st.Windows != 10 {
		t.Fatalf("stats shape: %+v", st)
	}
	if st.WallNS <= 0 {
		t.Fatal("no wall time accounted")
	}
	for i, u := range st.Utilization() {
		if u < 0 || u > 1 {
			t.Fatalf("shard %d utilization %v out of [0,1]", i, u)
		}
		if st.BusyNS[i] <= 0 {
			t.Fatalf("shard %d accounted no busy time", i)
		}
		if st.StallNS[i] < 0 || st.StallNS[i] > st.WallNS {
			t.Fatalf("shard %d stall %d outside [0, wall %d]", i, st.StallNS[i], st.WallNS)
		}
	}
	if st.BarrierStallMS() < 0 {
		t.Fatal("negative barrier stall")
	}
}

// Chunked and single-shot Run over the same horizon must execute the
// identical window sequence.
func TestClusterRunChunkingInvariance(t *testing.T) {
	a := func() []int64 {
		w := runRing(t, 2, 16, 40, 3)
		return w
	}()
	w := &ringWorld{cells: make([]int64, 16), k: 2}
	for i := range w.cells {
		w.cells[i] = int64(i)*7 + 3
	}
	c := New(Config{Shards: 2, Window: win, Seed: 3, Handler: func(dst int, m Msg) {
		w.cells[m.Args[0]] += m.Args[1]
	}})
	defer c.Close()
	for s := 0; s < 2; s++ {
		c.Shard(s).Engine.EveryAt(win, win, func() {
			sh := c.Shard(s)
			at := sh.Engine.Now() + win
			for i := range w.cells {
				if w.owner(i) != s {
					continue
				}
				next := (i + 1) % len(w.cells)
				sh.Send(Msg{At: at, Dst: int32(w.owner(next)), Kind: 1,
					Args: [4]int64{int64(next), w.cells[i]%11 + 1}})
			}
		})
	}
	// Ragged chunks, including ones that cut windows short.
	for _, until := range []sim.Time{3 * win, 3*win + win/2, 17 * win, 40 * win} {
		c.Run(until)
	}
	for i := range a {
		if w.cells[i] != a[i] {
			t.Fatalf("cell %d: chunked %d, single-shot %d", i, w.cells[i], a[i])
		}
	}
}
