// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-break), which keeps runs fully deterministic for a
// given seed. All CellFi network simulations — the LTE subframe machinery,
// the Wi-Fi CSMA state machines, traffic generators, and the CellFi
// interference-management epoch loop — are driven by one Engine.
//
// # Event-core layout
//
// The scheduling core is allocation-free on the hot path. Events live in
// a value slice of slots recycled through an intrusive free list, so a
// steady-state simulation performs zero heap allocations per
// Schedule/fire cycle: the slot array grows to peak concurrency once and
// is reused forever after. The priority queue is a 4-ary min-heap of
// slot indices ordered by (time, sequence) — the shallower tree halves
// the sift depth versus a binary heap and keeps the hot comparisons in
// one or two cache lines. Event handles returned by Schedule/After are
// small values stamped with the slot's generation; a stale handle
// (fired, cancelled, or slot since recycled) is detected by a generation
// mismatch, which makes Cancel safe without per-event
// pointers. Determinism is unaffected by the heap arity: the (time,
// sequence) key is a strict total order, so the firing sequence is
// byte-for-byte identical to any other correct priority queue.
//
// Reschedule re-arms a pending event in place: a new time, handler and
// sequence number in the same slot, restored by one sift instead of a
// removal and a push. The sequence number is the one the next Schedule
// would have taken, so a re-arm orders exactly as Cancel then Schedule
// does. The Wi-Fi MAC re-arms each contending AP's one pending event on
// every frame start and end this way.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"cellfi/internal/trace"
)

// Time is a virtual timestamp measured from the start of the simulation.
// It reuses time.Duration so callers can write 5*time.Millisecond.
type Time = time.Duration

// Event is a handle to a scheduled callback. It is a small value, cheap
// to copy and store; the zero value is an invalid handle on which Cancel
// is a safe no-op. Handles are generation-stamped: once the event fires
// or is cancelled the handle goes stale, and any later Cancel on it is a
// no-op even if the engine has recycled the underlying slot for a new
// event.
type Event struct {
	engine *Engine
	slot   int32
	gen    uint32
}

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired, was already cancelled, or was never scheduled (the zero
// handle) is a no-op; only a cancellation that actually removes a
// pending event increments the engine's cancelled counter.
func (ev Event) Cancel() {
	e := ev.engine
	if e == nil {
		return
	}
	sl := &e.slots[ev.slot]
	if sl.gen != ev.gen || sl.heapIdx < 0 {
		return
	}
	e.heapRemoveAt(sl.heapIdx)
	e.cancelled++
	e.freeSlot(ev.slot)
}

// slot is the in-engine storage of one event. Slots are recycled
// through a free list; gen increments on every release so stale handles
// can never act on a recycled slot.
type slot struct {
	at       Time
	seq      uint64
	fn       func()
	heapIdx  int32 // position in Engine.heap; -1 when free or fired
	nextFree int32
	gen      uint32
}

// Engine is a single-threaded discrete-event simulator.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now   Time
	slots []slot
	heap  []int32 // 4-ary min-heap of slot indices, keyed by (at, seq)
	// freeHead is the head of the free-slot list (-1 when empty).
	freeHead   int32
	seq        uint64
	fired      uint64
	cancelled  uint64
	maxPending int
	// streamSeed seeds the decorrelated child RNGs; see NewStream.
	streamSeed int64
	// rec, when non-nil, receives a trace record per dispatched event.
	// Nil by default so the dispatch loop pays only a predictable
	// branch when tracing is off.
	rec trace.Recorder
}

// SetRecorder attaches a flight recorder: every dispatched event emits
// a KindSimFire record stamped with its virtual fire time. Pass nil to
// detach. Layers built on the engine (wifi, lte) emit their own
// records through the same recorder via Recorder().
func (e *Engine) SetRecorder(r trace.Recorder) { e.rec = r }

// Recorder returns the attached flight recorder, nil when tracing is
// off. Instrumented callers must nil-check before recording.
func (e *Engine) Recorder() trace.Recorder { return e.rec }

// Stats is a snapshot of an engine's activity counters, used by run
// telemetry (internal/runner) and throughput benchmarks.
type Stats struct {
	// Scheduled counts every Schedule/After/Reschedule call since
	// construction.
	Scheduled uint64
	// Fired counts event callbacks that actually ran.
	Fired uint64
	// Cancelled counts events cancelled before firing. A Reschedule of
	// a pending event is a re-arm, not a cancellation: it counts once
	// in Scheduled and never here.
	Cancelled uint64
	// Clock is the current virtual time.
	Clock Time
	// Pending is the number of events still queued.
	Pending int
	// MaxPending is the high-water mark of the pending-event heap —
	// the deepest the queue ever got.
	MaxPending int
	// EventSlots is the number of event slots the engine has ever
	// allocated. Slots recycle through a free list, so this tracks
	// peak event concurrency (steady-state memory footprint), not the
	// total event count: once it plateaus, Schedule/fire cycles run
	// allocation-free.
	EventSlots int
}

// Stats returns a snapshot of the engine's counters. Like every other
// Engine method it must be called from the simulation goroutine.
func (e *Engine) Stats() Stats {
	return Stats{
		Scheduled:  e.seq,
		Fired:      e.fired,
		Cancelled:  e.cancelled,
		Clock:      e.now,
		Pending:    len(e.heap),
		MaxPending: e.maxPending,
		EventSlots: len(e.slots),
	}
}

// NewEngine returns an engine whose clock starts at zero and whose random
// streams all derive deterministically from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		streamSeed: seed,
		freeHead:   -1,
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// NewStream returns an independent random stream derived from the engine
// seed and the given label hash. Separate model components (fading,
// traffic, hopping) should each own a stream so adding randomness to one
// component does not perturb the others.
func (e *Engine) NewStream(label string) *rand.Rand {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(e.streamSeed ^ h))
}

// allocSlot pops a recycled slot or grows the slot array.
func (e *Engine) allocSlot() int32 {
	if s := e.freeHead; s >= 0 {
		e.freeHead = e.slots[s].nextFree
		return s
	}
	e.slots = append(e.slots, slot{heapIdx: -1})
	return int32(len(e.slots) - 1)
}

// freeSlot releases a slot back to the free list, bumping its
// generation so outstanding handles go stale.
func (e *Engine) freeSlot(s int32) {
	sl := &e.slots[s]
	sl.fn = nil // release the closure for GC
	sl.heapIdx = -1
	sl.gen++
	sl.nextFree = e.freeHead
	e.freeHead = s
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// (before Now) panics: it always indicates a model bug.
func (e *Engine) Schedule(at Time, fn func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	s := e.allocSlot()
	sl := &e.slots[s]
	sl.at, sl.seq, sl.fn = at, e.seq, fn
	e.heapPush(s)
	if len(e.heap) > e.maxPending {
		e.maxPending = len(e.heap)
	}
	return Event{engine: e, slot: s, gen: sl.gen}
}

// Reschedule re-arms the pending event ev to run fn at absolute time
// at, in its existing slot, and returns the new handle; ev goes stale.
// The event takes a fresh sequence number from the counter Schedule
// uses, so the (time, sequence) key — and with it every later firing —
// is exactly what ev.Cancel() followed by Schedule(at, fn) would give,
// without releasing and re-taking the slot or re-heaping twice. A
// stale or zero ev (fired, cancelled, never scheduled) just schedules
// a new event. A re-arm counts as scheduled, not as cancelled.
func (e *Engine) Reschedule(ev Event, at Time, fn func()) Event {
	if ev.engine != e {
		return e.Schedule(at, fn)
	}
	sl := &e.slots[ev.slot]
	if sl.gen != ev.gen || sl.heapIdx < 0 {
		return e.Schedule(at, fn)
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	sl.seq = e.seq
	sl.at, sl.fn = at, fn
	sl.gen++
	i := sl.heapIdx
	e.siftDown(i)
	if sl.heapIdx == i {
		e.siftUp(i)
	}
	return Event{engine: e, slot: ev.slot, gen: sl.gen}
}

// After runs fn after delay d from the current virtual time.
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// EveryAt schedules fn to run periodically for the rest of the run: the
// first firing happens after first, subsequent firings every period.
func (e *Engine) EveryAt(first, period Time, fn func()) {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &ticker{engine: e, period: period, fn: fn}
	// Bind the tick method once so periodic rescheduling reuses the
	// same func value instead of allocating a closure per period.
	t.tickFn = t.tick
	e.After(first, t.tickFn)
}

// ticker fires a callback periodically.
type ticker struct {
	engine *Engine
	period Time
	fn     func()
	tickFn func()
}

func (t *ticker) tick() {
	t.fn()
	t.engine.After(t.period, t.tickFn)
}

// Run processes events until the queue is empty or until is reached,
// whichever comes first. The clock is left at the last processed event
// time, or at until if the horizon was hit. It returns the number of
// events processed.
func (e *Engine) Run(until Time) int {
	n := 0
	for len(e.heap) > 0 {
		s := e.heap[0]
		sl := &e.slots[s]
		if sl.at > until {
			break
		}
		e.now = sl.at
		fn := sl.fn
		e.heapPop()
		e.freeSlot(s)
		e.fired++
		if e.rec != nil {
			e.rec.Record(trace.Record{T: int64(e.now), AP: -1, Kind: trace.KindSimFire})
		}
		fn()
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// RunBefore processes events strictly before horizon, then leaves the
// clock at horizon. It is the window primitive of the sharded executor
// (internal/shard): a conservative window [start, end) maps to one
// RunBefore(end) call, and because the cut is exclusive, an event
// scheduled exactly on a window boundary fires in the next window on
// every shard layout — the property that keeps window composition
// byte-identical to an unwindowed Run. It returns the number of events
// processed.
func (e *Engine) RunBefore(horizon Time) int {
	n := 0
	for len(e.heap) > 0 {
		s := e.heap[0]
		sl := &e.slots[s]
		if sl.at >= horizon {
			break
		}
		e.now = sl.at
		fn := sl.fn
		e.heapPop()
		e.freeSlot(s)
		e.fired++
		if e.rec != nil {
			e.rec.Record(trace.Record{T: int64(e.now), AP: -1, Kind: trace.KindSimFire})
		}
		fn()
		n++
	}
	if e.now < horizon {
		e.now = horizon
	}
	return n
}

// RunAll processes events until the queue is empty. It returns the
// number of events processed. Use with care: EveryAt keeps the queue
// non-empty forever.
func (e *Engine) RunAll() int {
	n := 0
	for len(e.heap) > 0 {
		s := e.heap[0]
		sl := &e.slots[s]
		e.now = sl.at
		fn := sl.fn
		e.heapPop()
		e.freeSlot(s)
		e.fired++
		if e.rec != nil {
			e.rec.Record(trace.Record{T: int64(e.now), AP: -1, Kind: trace.KindSimFire})
		}
		fn()
		n++
	}
	return n
}

// The priority queue: a 4-ary min-heap of slot indices. Children of
// node i sit at 4i+1..4i+4, the parent at (i-1)/4.

// heapLess orders slots by firing time, FIFO within a time.
func (e *Engine) heapLess(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (e *Engine) heapPush(s int32) {
	i := int32(len(e.heap))
	e.heap = append(e.heap, s)
	e.slots[s].heapIdx = i
	e.siftUp(i)
}

// heapPop removes and returns the minimum (root) slot index.
func (e *Engine) heapPop() int32 {
	h := e.heap
	s := h[0]
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if n > 0 {
		e.heap[0] = last
		e.slots[last].heapIdx = 0
		e.siftDown(0)
	}
	e.slots[s].heapIdx = -1
	return s
}

// heapRemoveAt deletes the element at heap position i.
func (e *Engine) heapRemoveAt(i int32) {
	h := e.heap
	n := int32(len(h)) - 1
	s := h[i]
	last := h[n]
	e.heap = h[:n]
	if i < n {
		e.heap[i] = last
		e.slots[last].heapIdx = i
		e.siftDown(i)
		if e.slots[last].heapIdx == i {
			e.siftUp(i)
		}
	}
	e.slots[s].heapIdx = -1
}

func (e *Engine) siftUp(i int32) {
	h := e.heap
	s := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !e.heapLess(s, h[p]) {
			break
		}
		h[i] = h[p]
		e.slots[h[i]].heapIdx = i
		i = p
	}
	h[i] = s
	e.slots[s].heapIdx = i
}

func (e *Engine) siftDown(i int32) {
	h := e.heap
	n := int32(len(h))
	s := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if e.heapLess(h[j], h[m]) {
				m = j
			}
		}
		if !e.heapLess(h[m], s) {
			break
		}
		h[i] = h[m]
		e.slots[h[i]].heapIdx = i
		i = m
	}
	h[i] = s
	e.slots[s].heapIdx = i
}
