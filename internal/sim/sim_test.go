package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cellfi/internal/trace"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run(time.Second)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		e.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	e.Run(time.Second)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.After(250*time.Millisecond, func() { at = e.Now() })
	e.Run(time.Second)
	if at != 250*time.Millisecond {
		t.Fatalf("callback saw clock %v, want 250ms", at)
	}
	if e.Now() != time.Second {
		t.Fatalf("final clock %v, want horizon 1s", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5*time.Millisecond, func() {})
	})
	e.Run(time.Second)
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(10*time.Millisecond, func() { fired = true })
	if got := e.Stats().Pending; got != 1 {
		t.Fatalf("Pending after scheduling = %d, want 1", got)
	}
	ev.Cancel()
	if got := e.Stats().Pending; got != 0 {
		t.Fatalf("Pending after cancel = %d, want 0", got)
	}
	ev.Cancel() // double-cancel is a no-op
	e.Run(time.Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFromWithinEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	var victim Event
	e.After(5*time.Millisecond, func() { victim.Cancel() })
	victim = e.After(10*time.Millisecond, func() { fired = true })
	e.Run(time.Second)
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

// Regression: Cancel must count a cancellation exactly once, and only
// when it actually removes a pending event. Repeated cancels, cancels
// of already-fired events, and cancels through the zero handle must not
// inflate the cancelled counter.
func TestCancelStatsCountOnce(t *testing.T) {
	e := NewEngine(1)
	ev := e.After(time.Millisecond, func() {})
	ev.Cancel()
	ev.Cancel()
	ev.Cancel()
	if got := e.Stats().Cancelled; got != 1 {
		t.Fatalf("Cancelled after triple-cancel = %d, want 1", got)
	}

	fired := e.After(time.Millisecond, func() {})
	e.Run(time.Second)
	fired.Cancel() // already fired: must not count
	fired.Cancel()
	if got := e.Stats().Cancelled; got != 1 {
		t.Fatalf("Cancelled after cancelling a fired event = %d, want still 1", got)
	}

	var never Event // never scheduled
	never.Cancel()  // must be a safe no-op
	if got := e.Stats().Cancelled; got != 1 {
		t.Fatalf("Cancelled after zero-handle cancel = %d, want still 1", got)
	}
}

// A handle must go stale once its event fires, even if the engine has
// recycled the slot for a newer event: cancelling through the stale
// handle must not touch the new occupant.
func TestStaleHandleCannotCancelRecycledSlot(t *testing.T) {
	e := NewEngine(1)
	old := e.After(time.Millisecond, func() {})
	e.Run(2 * time.Millisecond) // fires old, freeing its slot
	replacementFired := false
	repl := e.After(time.Millisecond, func() { replacementFired = true })
	old.Cancel() // stale: must not cancel repl even if slots collide
	if got := e.Stats().Pending; got != 1 {
		t.Fatalf("Pending after a stale Cancel = %d, want 1: it removed a recycled slot's new event", got)
	}
	e.Run(time.Second)
	if !replacementFired {
		t.Fatal("recycled-slot event did not fire")
	}
	repl.Cancel() // fired: a no-op
	if got := e.Stats().Cancelled; got != 0 {
		t.Fatalf("Cancelled = %d, want 0", got)
	}
}

// The slot array must recycle: a long chain of sequential events keeps
// EventSlots at peak concurrency, not total event count.
func TestSlotRecycling(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 10000 {
			e.After(time.Microsecond, tick)
		}
	}
	e.After(0, tick)
	e.RunAll()
	st := e.Stats()
	if st.Fired != 10000 {
		t.Fatalf("fired %d, want 10000", st.Fired)
	}
	if st.EventSlots > 2 {
		t.Fatalf("EventSlots = %d after a depth-1 chain, want <= 2", st.EventSlots)
	}
	if st.MaxPending != 1 {
		t.Fatalf("MaxPending = %d for a depth-1 chain, want 1", st.MaxPending)
	}
}

func TestStatsMaxPending(t *testing.T) {
	e := NewEngine(1)
	for i := 1; i <= 50; i++ {
		e.Schedule(Time(i)*time.Millisecond, func() {})
	}
	e.Run(time.Second)
	st := e.Stats()
	if st.MaxPending != 50 {
		t.Fatalf("MaxPending = %d, want 50", st.MaxPending)
	}
	if st.Pending != 0 {
		t.Fatalf("Pending after drain = %d, want 0", st.Pending)
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.After(2*time.Second, func() { fired = true })
	n := e.Run(time.Second)
	if n != 0 || fired {
		t.Fatalf("event beyond horizon fired (n=%d)", n)
	}
	// Continue: second Run should pick it up.
	n = e.Run(3 * time.Second)
	if n != 1 || !fired {
		t.Fatalf("second run processed %d events, fired=%v", n, fired)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.EveryAt(100*time.Millisecond, 100*time.Millisecond, func() {
		times = append(times, e.Now())
	})
	e.Run(350 * time.Millisecond)
	if len(times) != 3 {
		t.Fatalf("ticker fired %d times, want 3 (at %v)", len(times), times)
	}
	for i, at := range times {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestEveryAtFirstDelay(t *testing.T) {
	e := NewEngine(1)
	var first Time = -1
	e.EveryAt(0, 50*time.Millisecond, func() {
		if first < 0 {
			first = e.Now()
		}
	})
	e.Run(200 * time.Millisecond)
	if first != 0 {
		t.Fatalf("first firing at %v, want 0", first)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []int64 {
		e := NewEngine(seed)
		rng := e.NewStream("test")
		var out []int64
		e.EveryAt(time.Millisecond, time.Millisecond, func() {
			out = append(out, rng.Int63n(1000))
		})
		e.Run(20 * time.Millisecond)
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestStreamsIndependent(t *testing.T) {
	e := NewEngine(7)
	a := e.NewStream("fading")
	b := e.NewStream("traffic")
	// Identical labels give identical streams; distinct labels differ.
	a2 := e.NewStream("fading")
	if a.Int63() != a2.Int63() {
		t.Fatal("same label produced different streams")
	}
	if e.NewStream("fading").Int63() == b.Int63() {
		t.Fatal("distinct labels produced identical streams")
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine(1)
	ev1 := e.After(time.Millisecond, func() {})
	e.After(2*time.Millisecond, func() {})
	if got := e.Stats().Pending; got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	ev1.Cancel()
	if got := e.Stats().Pending; got != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", got)
	}
	e.Run(time.Second)
	if got := e.Stats().Pending; got != 0 {
		t.Fatalf("Pending after run = %d, want 0", got)
	}
}

// Property: regardless of the (time, order) mix of scheduled events, the
// engine fires them in nondecreasing time order and FIFO within a time.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delaysMS []uint8) bool {
		e := NewEngine(3)
		type fired struct {
			at  Time
			seq int
		}
		var log []fired
		for i, d := range delaysMS {
			i, at := i, Time(d)*time.Millisecond
			e.Schedule(at, func() { log = append(log, fired{at, i}) })
		}
		e.RunAll()
		if len(log) != len(delaysMS) {
			return false
		}
		for i := 1; i < len(log); i++ {
			if log[i].at < log[i-1].at {
				return false
			}
			if log[i].at == log[i-1].at && log[i].seq < log[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Run(until) never fires events scheduled after until.
func TestQuickHorizonRespected(t *testing.T) {
	f := func(delaysMS []uint16, horizonMS uint16) bool {
		e := NewEngine(5)
		horizon := Time(horizonMS) * time.Millisecond
		late := 0
		for _, d := range delaysMS {
			at := Time(d) * time.Millisecond
			e.Schedule(at, func() {
				if e.Now() > horizon {
					late++
				}
			})
		}
		e.Run(horizon)
		return late == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Stress the heap's remove path: schedule a large batch with random
// times, cancel a random subset (including from inside callbacks), and
// check that exactly the surviving events fire, in (time, FIFO) order.
func TestRandomCancelStress(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine(int64(trial))
		const n = 300
		events := make([]Event, n)
		ats := make([]Time, n)
		firedSeq := make([]int, 0, n)
		fired := make(map[int]bool)
		cancelled := make(map[int]bool)
		pending := func(v int) bool { return !fired[v] && !cancelled[v] }
		for i := 0; i < n; i++ {
			ats[i] = Time(rng.Intn(50)) * time.Millisecond
			events[i] = e.Schedule(ats[i], func() {
				firedSeq = append(firedSeq, i)
				fired[i] = true
				// Occasionally cancel a random later event mid-run.
				if v := rng.Intn(n); rng.Intn(4) == 0 && pending(v) {
					events[v].Cancel()
					cancelled[v] = true
				}
			})
		}
		// Cancel a random subset up front.
		for i := 0; i < n/4; i++ {
			v := rng.Intn(n)
			if pending(v) {
				events[v].Cancel()
				cancelled[v] = true
			}
		}
		e.RunAll()
		if len(firedSeq)+len(cancelled) != n {
			t.Fatalf("trial %d: fired %d + cancelled %d != %d",
				trial, len(firedSeq), len(cancelled), n)
		}
		for _, i := range firedSeq {
			if cancelled[i] {
				t.Fatalf("trial %d: cancelled event %d fired", trial, i)
			}
		}
		for j := 1; j < len(firedSeq); j++ {
			a, b := ats[firedSeq[j-1]], ats[firedSeq[j]]
			if b < a {
				t.Fatalf("trial %d: out-of-order firing at %v after %v", trial, b, a)
			}
			if b == a && firedSeq[j] < firedSeq[j-1] {
				t.Fatalf("trial %d: FIFO tie-break violated", trial)
			}
		}
		if got := int(e.Stats().Cancelled); got != len(cancelled) {
			t.Fatalf("trial %d: Cancelled = %d, want %d", trial, got, len(cancelled))
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]Time, 1024)
	for i := range delays {
		delays[i] = Time(rng.Intn(1e6)) * time.Microsecond
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for _, d := range delays {
			e.Schedule(d, func() {})
		}
		e.RunAll()
	}
}

func BenchmarkTickerSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		n := 0
		e.EveryAt(time.Millisecond, time.Millisecond, func() { n++ })
		e.Run(time.Second)
		if n != 1000 {
			b.Fatalf("ticks = %d", n)
		}
	}
}

// ringRecorder is a minimal trace.Recorder for engine tests.
type ringRecorder struct{ recs []trace.Record }

func (r *ringRecorder) Record(rec trace.Record) { r.recs = append(r.recs, rec) }

func TestEngineRecorder(t *testing.T) {
	e := NewEngine(1)
	rec := &ringRecorder{}
	e.SetRecorder(rec)
	if e.Recorder() == nil {
		t.Fatal("Recorder() = nil after SetRecorder")
	}
	for i := 0; i < 5; i++ {
		e.Schedule(time.Duration(i+1)*time.Millisecond, func() {})
	}
	e.Run(time.Second)
	st := e.Stats()
	if uint64(len(rec.recs)) != st.Fired {
		t.Fatalf("recorded %d sim-fire records, engine fired %d", len(rec.recs), st.Fired)
	}
	for i, r := range rec.recs {
		if r.Kind != trace.KindSimFire {
			t.Fatalf("record %d kind = %v, want sim-fire", i, r.Kind)
		}
		if r.AP != -1 {
			t.Fatalf("record %d AP = %d, want -1", i, r.AP)
		}
		want := int64((i + 1) * int(time.Millisecond))
		if r.T != want {
			t.Fatalf("record %d T = %d, want %d", i, r.T, want)
		}
	}
}

func TestEngineNilRecorderSafe(t *testing.T) {
	e := NewEngine(1)
	e.SetRecorder(nil)
	fired := 0
	e.Schedule(time.Millisecond, func() { fired++ })
	e.Run(time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}
