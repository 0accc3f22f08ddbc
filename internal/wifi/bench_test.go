package wifi

import (
	"testing"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/sim"
	"cellfi/internal/trace"
)

// benchNetwork builds a two-BSS contention domain with backlogged
// queues — enough cross-coupling that carrier sensing, NAV and backoff
// all stay busy — and returns the engine driving it.
func benchNetwork(tb testing.TB, params Params) (*sim.Engine, *Network) {
	tb.Helper()
	eng := sim.NewEngine(1)
	n := NewNetwork(eng, quietModel(1), params)
	for i := 0; i < 2; i++ {
		ap := n.AddAP(i, geo.Point{X: float64(i) * 120}, 20)
		for c := 0; c < 2; c++ {
			cl := n.AddClient(100+10*i+c, geo.Point{X: float64(i)*120 + 30 + float64(c)*10}, 20, ap)
			ap.Enqueue(cl, 1<<40)
		}
	}
	return eng, n
}

// BenchmarkCSMASlotLoop measures the contention inner loop — DIFS
// deferral, slot countdown, carrier-sense scans and the RTS/CTS/data/
// ACK exchanges they gate — per millisecond of virtual time. Tracked
// with allocations because busyAt runs on every slot tick for every
// contender; TestCSMASlotStepZeroAllocs gates them.
func BenchmarkCSMASlotLoop(b *testing.B) {
	eng, _ := benchNetwork(b, Params11af())
	b.ReportAllocs()
	b.ResetTimer()
	horizon := sim.Time(0)
	for i := 0; i < b.N; i++ {
		horizon += time.Millisecond
		eng.Run(horizon)
	}
}

// BenchmarkCSMASlotLoop11ac is the short-range 802.11ac flavour (finer
// slots, more exchanges per virtual millisecond).
func BenchmarkCSMASlotLoop11ac(b *testing.B) {
	eng, _ := benchNetwork(b, Params11ac20())
	b.ReportAllocs()
	b.ResetTimer()
	horizon := sim.Time(0)
	for i := 0; i < b.N; i++ {
		horizon += time.Millisecond
		eng.Run(horizon)
	}
}

// The CSMA slot step — carrier-sense scans, backoff, pooled frame
// records and the pre-bound exchange handlers — must be allocation-free
// once the transmission pool and overlap slices are warm, with the
// flight recorder off (nil) and on (a live ring).
func TestCSMASlotStepZeroAllocs(t *testing.T) {
	for name, rec := range map[string]trace.Recorder{"recorder=nil": nil, "recorder=ring": trace.NewRing(0)} {
		eng, _ := benchNetwork(t, Params11af())
		eng.SetRecorder(rec)
		horizon := sim.Time(0)
		for i := 0; i < 200; i++ {
			horizon += time.Millisecond
			eng.Run(horizon)
		}
		avg := testing.AllocsPerRun(100, func() {
			horizon += time.Millisecond
			eng.Run(horizon)
		})
		if avg != 0 {
			t.Errorf("%s: CSMA slot loop allocates %.2f times per ms in steady state", name, avg)
		}
	}
}
