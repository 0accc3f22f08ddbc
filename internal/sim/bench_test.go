package sim

import (
	"testing"
	"time"

	"cellfi/internal/trace"
)

// BenchmarkEngine measures raw event dispatch throughput: a fixed fan
// of self-rescheduling callbacks, reported in events/sec. This is the
// hot loop under every CSMA and LTE simulation; the benchmark's
// sim.schedule_fire_ns and sim.ns_per_event rows track it.
func BenchmarkEngine(b *testing.B) {
	const fan = 64 // concurrent timer chains, a typical network's worth
	e := NewEngine(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < b.N {
			e.After(time.Millisecond, tick)
		}
	}
	for i := 0; i < fan && i < b.N; i++ {
		e.After(time.Duration(i)*time.Microsecond, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkScheduleFire is the pure Schedule+fire cycle: one
// self-rescheduling chain, so the heap stays at depth 1 and the number
// measures the engine's fixed per-event cost with no queue pressure and
// no user payload. It must run at 0 amortized allocs/op
// (TestDispatchZeroAllocs).
func BenchmarkScheduleFire(b *testing.B) {
	e := NewEngine(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < b.N {
			e.After(time.Microsecond, tick)
		}
	}
	e.After(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineScheduleCancel measures the schedule/cancel path that
// tickers and retransmission timers exercise.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(e.Now()+time.Duration(i%97)*time.Microsecond, fn)
		if i%2 == 0 {
			ev.Cancel()
		}
		if e.Stats().Pending > 1024 {
			e.RunAll()
		}
	}
	e.RunAll()
}

// BenchmarkEngineReschedule measures moving one of 64 pending events,
// the Wi-Fi contention path (each contending AP's one pending event
// moves on every frame start and end): in place with Reschedule, and
// by Cancel then Schedule, which it replaces.
func BenchmarkEngineReschedule(b *testing.B) {
	for _, inPlace := range []bool{true, false} {
		name := "cancel+schedule"
		if inPlace {
			name = "reschedule"
		}
		b.Run(name, func(b *testing.B) {
			e := NewEngine(1)
			fn := func() {}
			evs := make([]Event, 64)
			for i := range evs {
				evs[i] = e.Schedule(time.Duration(i)*time.Microsecond, fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(evs)
				at := time.Duration(i%97) * time.Microsecond
				if inPlace {
					evs[k] = e.Reschedule(evs[k], at, fn)
				} else {
					evs[k].Cancel()
					evs[k] = e.Schedule(at, fn)
				}
			}
		})
	}
}

// BenchmarkTicker measures the periodic-event path: after construction
// a ticker must reschedule in place, alloc-free.
func BenchmarkTicker(b *testing.B) {
	e := NewEngine(1)
	n := 0
	e.EveryAt(time.Millisecond, time.Millisecond, func() { n++ })
	b.ReportAllocs()
	b.ResetTimer()
	horizon := Time(0)
	for i := 0; i < b.N; i++ {
		horizon += time.Millisecond
		e.Run(horizon)
	}
	if n < b.N {
		b.Fatalf("ticks = %d, want >= %d", n, b.N)
	}
}

// Schedule+fire and the ticker's in-place reschedule are the engine's
// fixed cost under every simulation. Both must stay allocation-free
// with the recorder nil (the default) and with a live trace.Ring
// attached — the two halves of the trace package's zero-cost contract.
func TestDispatchZeroAllocs(t *testing.T) {
	for name, rec := range map[string]trace.Recorder{"recorder=nil": nil, "recorder=ring": trace.NewRing(0)} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(1)
			e.SetRecorder(rec)
			left := 0
			var tick func()
			tick = func() {
				if left > 0 {
					left--
					e.After(time.Microsecond, tick)
				}
			}
			chain := func() {
				left = 7
				e.After(0, tick)
				e.RunAll()
			}
			if avg := testing.AllocsPerRun(200, chain); avg != 0 {
				t.Errorf("Schedule+fire allocates %.1f allocs per 8-event chain, want 0", avg)
			}

			e.EveryAt(time.Millisecond, time.Millisecond, func() {})
			horizon := e.Now()
			period := func() {
				horizon += time.Millisecond
				e.Run(horizon)
			}
			if avg := testing.AllocsPerRun(200, period); avg != 0 {
				t.Errorf("ticker period allocates %.1f allocs/op, want 0", avg)
			}
		})
	}
}
