package shard

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"cellfi/internal/sim"
)

// Config sizes a cluster.
type Config struct {
	// Shards is the number of region shards (and worker goroutines);
	// values below 1 are raised to 1.
	Shards int
	// Window is the conservative lookahead L: engines advance in
	// lockstep windows of this length, and a message sent during a
	// window must not fire before the window ends. Must be positive.
	Window sim.Time
	// Seed derives each shard engine's seed deterministically.
	Seed int64
	// Handler consumes delivered messages; required if any shard
	// sends. See Handler for the threading contract.
	Handler Handler
	// AfterWindow, if set, runs single-threaded at every barrier after
	// messages are harvested, with every worker parked — the global
	// fold point (stat merges, trace emission, epoch bookkeeping).
	AfterWindow func(end sim.Time)
}

// Cluster drives K shard engines in conservative lockstep windows.
// Construct with New, drive with Run, and release the worker goroutines
// with Close.
type Cluster struct {
	cfg    Config
	shards []*Shard

	// pending holds harvested, undelivered messages sorted by
	// (At, Src, Seq); the prefix with At < nextWindowEnd is delivered
	// at each barrier.
	pending []Msg

	now    sim.Time
	curEnd sim.Time

	jobs []chan sim.Time // a window end per send
	done chan doneMsg
	wg   sync.WaitGroup

	closed bool

	// Telemetry (see Stats).
	windows int64
	msgs    int64
	wallNS  int64
	busyNS  []int64
	stallNS []int64
	winBusy []int64 // scratch: this window's busy time per shard
}

type doneMsg struct {
	id   int
	busy time.Duration
}

// New builds a cluster of cfg.Shards engines and starts one persistent
// worker goroutine per shard. Each engine's seed derives from cfg.Seed
// and the shard ID, so shard-local randomness is decorrelated but
// reproducible. Call Close when done with the cluster.
func New(cfg Config) *Cluster {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Window <= 0 {
		panic("shard: non-positive window")
	}
	c := &Cluster{
		cfg:     cfg,
		shards:  make([]*Shard, cfg.Shards),
		jobs:    make([]chan sim.Time, cfg.Shards),
		done:    make(chan doneMsg, cfg.Shards),
		busyNS:  make([]int64, cfg.Shards),
		stallNS: make([]int64, cfg.Shards),
		winBusy: make([]int64, cfg.Shards),
	}
	for i := range c.shards {
		c.shards[i] = &Shard{
			ID:     i,
			Engine: sim.NewEngine(cfg.Seed + int64(i)*-0x61c8864680b583eb), // golden-ratio stride
			c:      c,
		}
		c.jobs[i] = make(chan sim.Time, 1)
		c.wg.Add(1)
		go c.worker(i)
	}
	return c
}

func (c *Cluster) worker(i int) {
	defer c.wg.Done()
	for end := range c.jobs[i] {
		t0 := time.Now()
		c.shards[i].Engine.RunBefore(end)
		c.done <- doneMsg{id: i, busy: time.Since(t0)}
	}
}

// Shard returns shard i for workload setup (scheduling region events,
// handler access to region state).
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Now returns the completed conservative horizon: every shard's engine
// has processed all events strictly before it.
func (c *Cluster) Now() sim.Time { return c.now }

// Run advances every shard to `until` in conservative windows. Window
// boundaries fall on multiples of Window from the start of time (the
// final window clamps to until), so splitting one Run into several
// shorter Runs over the same horizon executes the identical window
// sequence — determinism does not depend on the caller's chunking.
func (c *Cluster) Run(until sim.Time) {
	if c.closed {
		panic("shard: Run on a closed cluster")
	}
	for c.now < until {
		end := c.now + c.cfg.Window - (c.now % c.cfg.Window)
		if end > until {
			end = until
		}
		c.runWindow(end)
	}
}

// runWindow executes one conservative window ending at end: deliver
// due messages, run every shard in parallel, harvest staged messages,
// fold. This whole path is allocation-free once the message buffers
// have reached the workload's high-water mark
// (TestWindowBarrierZeroAllocs).
func (c *Cluster) runWindow(end sim.Time) {
	c.curEnd = end
	c.deliver(end)
	t0 := time.Now()
	for i := range c.jobs {
		c.jobs[i] <- end
	}
	c.collect(t0)
	c.harvest(end)
	if c.cfg.AfterWindow != nil {
		c.cfg.AfterWindow(end)
	}
	c.now = end
	c.windows++
}

// collect waits for every worker to park and accounts busy and stall
// time: a shard's stall for the window is the gap between its own busy
// time and the wall time of the whole parallel section — the time it
// spent waiting for the slowest shard at the barrier.
func (c *Cluster) collect(t0 time.Time) {
	for range c.shards {
		d := <-c.done
		c.winBusy[d.id] = int64(d.busy)
	}
	w := int64(time.Since(t0))
	c.wallNS += w
	for i := range c.winBusy {
		c.busyNS[i] += c.winBusy[i]
		if s := w - c.winBusy[i]; s > 0 {
			c.stallNS[i] += s
		}
	}
}

// deliver invokes the handler for every pending message with At < end,
// in (At, Src, Seq) order, then drops them from the queue. Handlers
// run on the coordinator with all workers parked.
func (c *Cluster) deliver(end sim.Time) {
	n := 0
	for n < len(c.pending) && c.pending[n].At < end {
		n++
	}
	if n == 0 {
		return
	}
	if c.cfg.Handler == nil {
		panic(fmt.Sprintf("shard: %d messages pending with no Config.Handler", n))
	}
	for i := 0; i < n; i++ {
		c.cfg.Handler(int(c.pending[i].Dst), c.pending[i])
	}
	c.pending = c.pending[:copy(c.pending, c.pending[n:])]
}

// harvest moves every shard's staged messages into the pending queue
// and restores the (At, Src, Seq) order. Send already enforced
// At >= end, so nothing harvested here was due in the window that just
// ran.
func (c *Cluster) harvest(end sim.Time) {
	_ = end
	grew := false
	for _, s := range c.shards {
		if len(s.out) == 0 {
			continue
		}
		c.pending = append(c.pending, s.out...)
		c.msgs += int64(len(s.out))
		s.out = s.out[:0]
		grew = true
	}
	if grew {
		slices.SortFunc(c.pending, func(a, b Msg) int {
			switch {
			case a.At != b.At:
				if a.At < b.At {
					return -1
				}
				return 1
			case a.Src != b.Src:
				return int(a.Src) - int(b.Src)
			case a.Seq < b.Seq:
				return -1
			case a.Seq > b.Seq:
				return 1
			}
			return 0
		})
	}
}

// Close parks and releases the worker goroutines. The cluster's state
// and telemetry stay readable; Run panics afterwards.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for i := range c.jobs {
		close(c.jobs[i])
	}
	c.wg.Wait()
}

// Stats is a telemetry snapshot of a cluster: how evenly the partition
// spread the work (per-shard utilization) and how much time the
// lockstep barriers cost (per-shard stall).
type Stats struct {
	// Shards is the shard count; Windows counts Run windows executed.
	Shards  int
	Windows int64
	// Msgs counts cross-shard messages harvested; Pending is the
	// undelivered backlog at snapshot time.
	Msgs    int64
	Pending int
	// WallNS is total wall time inside parallel sections. BusyNS[i]
	// is shard i's own execution time; StallNS[i] is the time shard i
	// spent parked waiting for slower shards at barriers.
	WallNS  int64
	BusyNS  []int64
	StallNS []int64
}

// Stats returns a copy of the cluster's counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Shards:  len(c.shards),
		Windows: c.windows,
		Msgs:    c.msgs,
		Pending: len(c.pending),
		WallNS:  c.wallNS,
		BusyNS:  slices.Clone(c.busyNS),
		StallNS: slices.Clone(c.stallNS),
	}
}

// Utilization returns each shard's busy fraction of parallel-section
// wall time, in [0, 1]. A well-balanced partition reads near-equal
// values; a hot shard reads near 1 while the rest stall.
func (st Stats) Utilization() []float64 {
	out := make([]float64, st.Shards)
	if st.WallNS <= 0 {
		return out
	}
	for i, b := range st.BusyNS {
		u := float64(b) / float64(st.WallNS)
		if u > 1 {
			u = 1
		}
		out[i] = u
	}
	return out
}

// BarrierStallMS returns the total time shards spent waiting at
// barriers, summed across shards, in milliseconds.
func (st Stats) BarrierStallMS() float64 {
	var sum int64
	for _, s := range st.StallNS {
		sum += s
	}
	return float64(sum) / 1e6
}
