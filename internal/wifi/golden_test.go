package wifi

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"
	"time"

	"cellfi/internal/propagation"
	"cellfi/internal/sim"
	"cellfi/internal/topo"
	"cellfi/internal/trace"
)

// goldenCSMA pins one second of virtual time of two seed-1 CSMA
// networks by their MAC stream (see macStream): "fig9-af" is the 14 APs
// x 6 backlogged clients 802.11af network the benchmark's
// wifi.csma_ns_per_sim_ms row times; "bench-ac" is benchNetwork on
// Params11ac20. Any change to how received powers, carrier sense, the
// backoff countdown or the exchange state machine are computed that is
// not bit-identical moves these.
//
// Re-roll: a change that means to move a Wi-Fi result runs
//
//	go test -run TestCSMAGolden -v ./internal/wifi
//
// pastes the printed `"key": "digest",` lines over the table below, and
// says in CHANGES.md what moved and why. A digest that moves without
// such a reason is a regression.
var goldenCSMA = map[string]string{
	"fig9-af":  "f5f177ea0d8aed8e",
	"bench-ac": "a7abe5a585220453",
}

// goldenCSMAFires pins how many engine events the same two runs fire.
// It is a cost, not a behaviour: a change to how many events the MAC
// schedules for the same MAC stream moves it and leaves goldenCSMA
// alone. Re-roll it the same way from TestCSMAEngineFires' output.
var goldenCSMAFires = map[string]uint64{
	"fig9-af":  8094,
	"bench-ac": 3417,
}

// fig9AfNetwork builds the densest Fig. 9 Wi-Fi arm: topo.Paper(14, 6)
// at seed 1 on the default urban model, 30 dBm everywhere, every client
// backlogged.
func fig9AfNetwork() (*sim.Engine, *Network) {
	tp := topo.Generate(topo.Paper(14, 6), 1)
	eng := sim.NewEngine(1)
	n := NewNetwork(eng, propagation.DefaultUrban(1), Params11af())
	id := 1
	for i, apPos := range tp.APs {
		ap := n.AddAP(id, apPos, 30)
		id++
		for _, cp := range tp.Clients[i] {
			ap.Enqueue(n.AddClient(id, cp, 30, ap), 1<<40)
			id++
		}
	}
	return eng, n
}

// macStream is a flight recorder that hashes what the MAC did — every
// record except the engine's per-event KindSimFire — and only counts
// the engine fires. sum closes the digest over MACStats, Drops and
// every client's delivered bits.
type macStream struct {
	h     hash.Hash
	fires uint64
	b     [8]byte
}

func newMACStream() *macStream { return &macStream{h: sha256.New()} }

func (m *macStream) put(v int64) {
	binary.LittleEndian.PutUint64(m.b[:], uint64(v))
	m.h.Write(m.b[:])
}

func (m *macStream) Record(r trace.Record) {
	if r.Kind == trace.KindSimFire {
		m.fires++
		return
	}
	m.put(r.T)
	m.put(int64(r.AP))
	m.put(int64(r.Kind))
	m.put(int64(r.N))
	for _, a := range r.Args[:r.N] {
		m.put(a)
	}
}

// sum returns the first size bytes of the stream's digest, in hex,
// after folding in the network's end-of-run counters.
func (m *macStream) sum(n *Network, size int) string {
	st := n.Stats()
	for _, v := range []int64{int64(st.TXOPs), int64(st.Failures), int64(st.DataAirtime),
		int64(st.ControlAirtime), st.DeliveredBits, int64(n.Drops)} {
		m.put(v)
	}
	for _, ap := range n.APs() {
		for _, c := range ap.Clients() {
			m.put(ap.DeliveredBits(c))
		}
	}
	return fmt.Sprintf("%x", m.h.Sum(nil)[:size])
}

// goldenRun runs one pinned network for a second of virtual time and
// returns its MAC-stream digest and engine fire count.
func goldenRun(t *testing.T, key string) (string, uint64) {
	t.Helper()
	var eng *sim.Engine
	var n *Network
	switch key {
	case "fig9-af":
		eng, n = fig9AfNetwork()
	case "bench-ac":
		eng, n = benchNetwork(t, Params11ac20())
	default:
		t.Fatalf("unknown golden network %q", key)
	}
	m := newMACStream()
	eng.SetRecorder(m)
	eng.Run(time.Second)
	return m.sum(n, 8), m.fires
}

func TestCSMAGolden(t *testing.T) {
	for _, key := range []string{"fig9-af", "bench-ac"} {
		got, _ := goldenRun(t, key)
		t.Logf("%q: %q,", key, got)
		if want := goldenCSMA[key]; got != want {
			t.Errorf("%s: MAC-stream digest %s, golden %s", key, got, want)
		}
	}
}

func TestCSMAEngineFires(t *testing.T) {
	for _, key := range []string{"fig9-af", "bench-ac"} {
		_, got := goldenRun(t, key)
		t.Logf("%q: %d,", key, got)
		if want := goldenCSMAFires[key]; got != want {
			t.Errorf("%s: %d engine fires in 1 s, golden %d", key, got, want)
		}
	}
}
