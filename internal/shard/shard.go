// Package shard executes one simulated world across many cores without
// giving up determinism: a conservative parallel discrete-event
// executor in the Chandy–Misra–Bryant tradition, specialized to the
// repo's windowed-lookahead workloads.
//
// The world is partitioned into K region shards. Each shard owns one
// sim.Engine and runs on its own persistent goroutine; the cluster
// advances all engines in lockstep conservative windows of a fixed
// lookahead L. Within a window [t, t+L) every shard processes its own
// events with no synchronization at all; cross-shard influence travels
// only as Msg values, and the conservative contract is that a message
// sent during a window must fire no earlier than the window's end —
// the spatial analogue is that interference and mobility cannot
// propagate between regions faster than the lookahead bound
// (propagation delay / coherence-block granularity, see the DESIGN.md
// sections "The significance radius" and "Sharded execution and the
// determinism contract").
//
// # The determinism contract
//
// Same seed + same world ⇒ byte-identical behaviour at any shard
// count, regardless of OS scheduling. The argument has three legs:
//
//  1. Within a window, worker goroutines touch only shard-owned state,
//     and each sim.Engine is itself deterministic, so every shard's
//     window execution — including the messages it stages, in order —
//     is a pure function of the shard's state.
//  2. Messages are staged into per-shard ordered buffers stamped with
//     a per-source sequence number, harvested at the barrier in shard
//     order, and merged by the strict total order (At, Src, Seq).
//     The merged delivery sequence is therefore independent of which
//     worker finished first.
//  3. Delivery and the AfterWindow fold run single-threaded on the
//     coordinator while every worker is parked at the barrier, so
//     handlers may touch any shard's state without locks.
//
// Cross-shard-count equivalence (K=1 ≡ K=2 ≡ K=8) is a property of the
// workload on top: state updates exchanged between shards must be
// order-invariant (commutative integer deltas, idempotent sets) or
// carry their own total order. internal/metro is the worked example;
// its 50-seed trace-byte equivalence test pins the property the same
// way scheduler_ref_test.go pinned the scheduler rewrite.
//
// Fork is the package's other face: a fork-join pass over an index
// range, for work inside one window (or outside any cluster) whose
// items write disjoint state. netsim's per-cell kernels and each metro
// shard's per-UE phases run on it.
//
// The steady-state barrier path — dispatch, busy/stall accounting,
// message harvest, sort, delivery — performs zero heap allocations
// once buffers have grown to the workload's high-water mark;
// TestWindowBarrierZeroAllocs enforces it.
package shard

import (
	"fmt"

	"cellfi/internal/sim"
)

// Msg is one cross-shard event: a typed, fixed-size value (never a
// closure, so staging and merging stay allocation-free and the wire
// order is explicit). Kind and Args are workload-defined; the executor
// only reads At, Src, Dst and Seq.
type Msg struct {
	// At is the virtual time the message takes effect. The
	// conservative contract requires At >= the end of the window the
	// sender is executing; Send panics otherwise.
	At sim.Time
	// Src / Dst are shard IDs. Src and Seq are stamped by Send.
	Src, Dst int32
	// Kind discriminates message types within a workload.
	Kind int32
	// Seq is the per-source sequence number, the third key of the
	// deterministic merge order (At, Src, Seq).
	Seq uint64
	// Args is the kind-specific payload.
	Args [4]int64
}

// Handler consumes one delivered message. Handlers run single-threaded
// on the coordinator goroutine between windows (every worker parked),
// in merged (At, Src, Seq) order, so they may mutate any shard's state
// and schedule events on the destination engine at times >= m.At.
type Handler func(dst int, m Msg)

// Shard is one region of the partitioned world: an ID, its engine, and
// its staged outbound messages.
type Shard struct {
	// ID is the shard index in [0, Shards).
	ID int
	// Engine is the shard's discrete-event engine. Workload setup
	// schedules its region's events here before the first Run.
	Engine *sim.Engine

	c   *Cluster
	seq uint64
	out []Msg // staged this window, harvested at the barrier
}

// Send stages a cross-shard message. It may be called from the shard's
// own window execution (worker goroutine, shard-local) or from a
// barrier-time handler/fold (coordinator). The conservative lookahead
// rule is enforced here: a message must take effect no earlier than
// the end of the window being executed, otherwise it could not be
// delivered at a barrier before its firing time.
func (s *Shard) Send(m Msg) {
	if m.At < s.c.curEnd {
		panic(fmt.Sprintf("shard: conservative lookahead violation: shard %d sends at %v inside window ending %v",
			s.ID, m.At, s.c.curEnd))
	}
	if m.Dst < 0 || int(m.Dst) >= len(s.c.shards) {
		panic(fmt.Sprintf("shard: send to unknown shard %d", m.Dst))
	}
	s.seq++
	m.Src = int32(s.ID)
	m.Seq = s.seq
	s.out = append(s.out, m)
}
