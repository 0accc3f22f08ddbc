package sim

import (
	"math/rand"
	"testing"
	"time"
)

// rearmDriver runs one engine through a seeded random script of
// Schedule, Cancel and re-arm operations, some made from inside firing
// events, and records the (time, label) of every firing. Two drivers
// with the same seed see the same script as long as their engines fire
// the same events in the same order.
type rearmDriver struct {
	e   *Engine
	rng *rand.Rand
	// viaReschedule selects how a re-arm is made: Engine.Reschedule,
	// or Cancel followed by Schedule.
	viaReschedule bool
	// handles[l] and ats[l] are the handle and due time label l was
	// scheduled with; label 0 is a zero handle that never changes.
	handles []Event
	ats     []Time
	fired   []firing
	budget  int // labels left to create
}

type firing struct {
	at    Time
	label int
}

func newRearmDriver(seed int64, viaReschedule bool) *rearmDriver {
	return &rearmDriver{
		e:             NewEngine(seed),
		rng:           rand.New(rand.NewSource(seed)),
		viaReschedule: viaReschedule,
		handles:       []Event{{}},
		ats:           []Time{0},
		budget:        3000,
	}
}

// at draws a due time a few microseconds from now, so same-instant
// ties are common.
func (d *rearmDriver) at() Time {
	return d.e.Now() + Time(d.rng.Intn(8))*time.Microsecond
}

// handler returns label l's callback: record the firing, then run up
// to three more operations from inside it.
func (d *rearmDriver) handler(l int) func() {
	return func() {
		d.fired = append(d.fired, firing{d.e.Now(), l})
		for k := d.rng.Intn(4); k > 0; k-- {
			d.step(l)
		}
	}
}

// step performs one random operation; self is the firing label (or -1
// outside any event), whose own stale handle it sometimes re-arms.
func (d *rearmDriver) step(self int) {
	pick := d.rng.Intn(len(d.handles))
	switch op := d.rng.Intn(10); {
	case op < 3:
		d.schedule()
	case op < 5:
		d.handles[pick].Cancel()
	case op < 9:
		d.rearm(pick)
	case self >= 0:
		d.rearm(self)
	}
}

func (d *rearmDriver) schedule() {
	if d.budget == 0 {
		return
	}
	d.budget--
	l := len(d.handles)
	at := d.at()
	d.handles = append(d.handles, d.e.Schedule(at, d.handler(l)))
	d.ats = append(d.ats, at)
}

// rearm moves label l's event (pending, fired, cancelled or the zero
// handle) to a new label: earlier, later, or at its own due time.
func (d *rearmDriver) rearm(l int) {
	if d.budget == 0 {
		return
	}
	d.budget--
	at := d.at()
	if d.rng.Intn(4) == 0 && d.ats[l] >= d.e.Now() {
		at = d.ats[l]
	}
	nl := len(d.handles)
	ev := d.handles[l]
	var next Event
	if d.viaReschedule {
		next = d.e.Reschedule(ev, at, d.handler(nl))
	} else {
		ev.Cancel()
		next = d.e.Schedule(at, d.handler(nl))
	}
	d.handles = append(d.handles, next)
	d.ats = append(d.ats, at)
}

// run drives the script: a burst of operations, then an engine window,
// until the label budget is spent and the queue drains.
func (d *rearmDriver) run() {
	for d.budget > 0 {
		for k := 1 + d.rng.Intn(6); k > 0; k-- {
			d.step(-1)
		}
		d.e.Run(d.e.Now() + Time(d.rng.Intn(5))*time.Microsecond)
	}
	d.e.RunAll()
}

// A re-arm by Reschedule must be indistinguishable from Cancel then
// Schedule: same firings in the same order, same counters (Cancelled
// aside, which counts only real cancellations).
func TestRescheduleMatchesCancelSchedule(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		a, b := newRearmDriver(seed, false), newRearmDriver(seed, true)
		a.run()
		b.run()
		if len(a.fired) != len(b.fired) {
			t.Fatalf("seed %d: %d firings by Cancel+Schedule, %d by Reschedule", seed, len(a.fired), len(b.fired))
		}
		for i := range a.fired {
			if a.fired[i] != b.fired[i] {
				t.Fatalf("seed %d: firing %d is %+v by Cancel+Schedule, %+v by Reschedule", seed, i, a.fired[i], b.fired[i])
			}
		}
		sa, sb := a.e.Stats(), b.e.Stats()
		if sb.Cancelled > sa.Cancelled {
			t.Errorf("seed %d: Reschedule cancelled %d events, Cancel+Schedule only %d", seed, sb.Cancelled, sa.Cancelled)
		}
		sa.Cancelled, sb.Cancelled = 0, 0
		if sa != sb {
			t.Errorf("seed %d: stats differ:\nCancel+Schedule %+v\nReschedule      %+v", seed, sa, sb)
		}
		if len(a.fired) < 1000 {
			t.Errorf("seed %d: only %d firings; the script exercises too little", seed, len(a.fired))
		}
	}
}

// A re-arm leaves the old handle stale and the new one live.
func TestRescheduleHandles(t *testing.T) {
	e := NewEngine(1)
	var got []int
	old := e.Schedule(5*time.Microsecond, func() { got = append(got, 1) })
	ev := e.Reschedule(old, 2*time.Microsecond, func() { got = append(got, 2) })
	old.Cancel() // stale: must not remove the re-armed event
	if p := e.Stats().Pending; p != 1 {
		t.Fatalf("Pending = %d after a stale Cancel, want 1", p)
	}
	e.RunAll()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("fired %v, want [2]", got)
	}
	// A fired handle schedules a fresh event.
	e.Reschedule(ev, e.Now()+time.Microsecond, func() { got = append(got, 3) })
	e.RunAll()
	if len(got) != 2 || got[1] != 3 {
		t.Fatalf("fired %v, want [2 3]", got)
	}
	if st := e.Stats(); st.Scheduled != 3 || st.Fired != 2 || st.Cancelled != 0 {
		t.Fatalf("stats %+v, want 3 scheduled, 2 fired, 0 cancelled", st)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-arming into the past did not panic")
		}
	}()
	ev = e.Schedule(e.Now()+time.Microsecond, func() {})
	e.Reschedule(ev, e.Now()-time.Microsecond, func() {})
}
