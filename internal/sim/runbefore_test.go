package sim

import (
	"testing"
	"time"
)

// RunBefore windows must compose to exactly one unwindowed run: same
// firing order, same clock, and a boundary event always lands in the
// window that starts at its timestamp, never the one that ends there.
func TestRunBeforeWindowComposition(t *testing.T) {
	build := func() (*Engine, *[]Time) {
		e := NewEngine(7)
		var fired []Time
		for i := 0; i < 40; i++ {
			at := Time(i%13) * 100 * time.Millisecond // collisions + boundary hits
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		e.EveryAt(250*time.Millisecond, 250*time.Millisecond, func() {
			if e.Now() < 1200*time.Millisecond {
				e.After(50*time.Millisecond, func() { fired = append(fired, e.Now()) })
			}
		})
		return e, &fired
	}

	ref, refFired := build()
	ref.Run(1500 * time.Millisecond)

	win, winFired := build()
	for end := Time(250 * time.Millisecond); end <= 1500*time.Millisecond; end += 250 * time.Millisecond {
		win.RunBefore(end)
	}

	// Every callback that appends a time fires strictly before 1500ms,
	// so the windowed (exclusive-cut) and reference (inclusive Run)
	// observation sequences must match exactly.
	if len(*winFired) != len(*refFired) {
		t.Fatalf("windowed run observed %d firings, reference %d", len(*winFired), len(*refFired))
	}
	for i, at := range *winFired {
		if (*refFired)[i] != at {
			t.Fatalf("firing %d: windowed at %v, reference at %v", i, at, (*refFired)[i])
		}
	}
	if win.Now() != 1500*time.Millisecond {
		t.Fatalf("windowed clock %v, want 1500ms", win.Now())
	}
}

// An event scheduled exactly at the horizon must not fire, and the
// clock must still advance to the horizon.
func TestRunBeforeExclusiveBoundary(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(100*time.Millisecond, func() { fired = true })
	n := e.RunBefore(100 * time.Millisecond)
	if n != 0 || fired {
		t.Fatalf("boundary event fired inside the window ending at its timestamp")
	}
	if e.Now() != 100*time.Millisecond {
		t.Fatalf("clock %v, want 100ms", e.Now())
	}
	n = e.RunBefore(200 * time.Millisecond)
	if n != 1 || !fired {
		t.Fatalf("boundary event did not fire in the next window")
	}
}

// An empty window still advances the clock, so schedules from a
// barrier-time handler are legal.
func TestRunBeforeEmptyWindowAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	e.RunBefore(300 * time.Millisecond)
	if e.Now() != 300*time.Millisecond {
		t.Fatalf("clock %v, want 300ms", e.Now())
	}
	// Scheduling at the new now must not panic.
	e.Schedule(300*time.Millisecond, func() {})
}
