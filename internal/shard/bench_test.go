package shard

import "testing"

// newBenchCluster builds a K-shard ring workload: every window each
// shard sends one message per owned cell to the successor's owner, so
// each window exercises the full barrier path — deliver, parallel
// dispatch, collect, harvest, sort.
func newBenchCluster(k, cells int) (*Cluster, *ringWorld) {
	w := &ringWorld{cells: make([]int64, cells), k: k}
	for i := range w.cells {
		w.cells[i] = int64(i) * 7
	}
	c := New(Config{
		Shards: k,
		Window: win,
		Seed:   1,
		Handler: func(dst int, m Msg) {
			w.cells[m.Args[0]] += m.Args[1]
		},
	})
	for s := 0; s < k; s++ {
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
	return c, w
}

// BenchmarkWindowBarrier measures one conservative window at K=4 with
// cross-shard traffic in flight. Steady state must be 0 allocs/op —
// message buffers, engine event slots and the pending queue all reach
// their high-water mark during warmup and recycle thereafter
// (TestWindowBarrierZeroAllocs holds the gate).
func BenchmarkWindowBarrier(b *testing.B) {
	c, _ := newBenchCluster(4, 64)
	defer c.Close()
	c.Run(8 * win) // warm buffers to the workload's high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(c.Now() + win)
	}
}

// AllocsPerRun counts mallocs process-wide, so the workers' side of the
// barrier is covered too.
func TestWindowBarrierZeroAllocs(t *testing.T) {
	c, _ := newBenchCluster(4, 64)
	defer c.Close()
	c.Run(8 * win) // warm buffers to the workload's high-water mark
	if avg := testing.AllocsPerRun(100, func() { c.Run(c.Now() + win) }); avg != 0 {
		t.Errorf("window barrier with cross-shard traffic allocates %.1f allocs/op, want 0", avg)
	}
}

// BenchmarkWindowBarrierIdle is the empty-window floor: no messages, no
// events, just the dispatch/park round trip — the fixed cost a sharded
// world pays per window regardless of load.
func BenchmarkWindowBarrierIdle(b *testing.B) {
	c := New(Config{Shards: 4, Window: win, Seed: 1})
	defer c.Close()
	c.Run(2 * win)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(c.Now() + win)
	}
}
