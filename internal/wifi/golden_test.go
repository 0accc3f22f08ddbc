package wifi

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"cellfi/internal/propagation"
	"cellfi/internal/sim"
	"cellfi/internal/topo"
	"cellfi/internal/trace"
)

// goldenCSMA pins one second of virtual time of two seed-1 CSMA
// networks: an 8-byte SHA-256 prefix over the flight-recorder stream
// (engine fires, TX, backoff and failure records) followed by every
// MACStats field and Drops. "fig9-af" is the 14 APs x 6 backlogged
// clients 802.11af network the benchmark's wifi.csma_ns_per_sim_ms row
// times; "bench-ac" is benchNetwork on Params11ac20. Any change to how
// received powers, carrier sense or the exchange state machine are
// computed that is not bit-identical moves these.
//
// Re-roll: a change that means to move a Wi-Fi result runs
//
//	go test -run TestCSMAGolden -v ./internal/wifi
//
// pastes the printed `"key": "digest",` lines over the table below, and
// says in CHANGES.md what moved and why. A digest that moves without
// such a reason is a regression.
var goldenCSMA = map[string]string{
	"fig9-af":  "145e77b6ec4bd2a3",
	"bench-ac": "26ccd7f985586951",
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

func csmaDigest(t *testing.T, eng *sim.Engine, n *Network) string {
	t.Helper()
	var buf bytes.Buffer
	ring := trace.NewRing(256)
	ring.SpillTo(&buf)
	eng.SetRecorder(ring)
	eng.Run(time.Second)
	if err := ring.Flush(); err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	h.Write(buf.Bytes())
	var b [8]byte
	putInt := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	st := n.Stats()
	putInt(int64(st.TXOPs))
	putInt(int64(st.Failures))
	putInt(int64(st.DataAirtime))
	putInt(int64(st.ControlAirtime))
	putInt(st.DeliveredBits)
	putInt(int64(n.Drops))
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestCSMAGolden(t *testing.T) {
	builds := map[string]func() (*sim.Engine, *Network){
		"fig9-af":  fig9AfNetwork,
		"bench-ac": func() (*sim.Engine, *Network) { return benchNetwork(t, Params11ac20()) },
	}
	for _, key := range []string{"fig9-af", "bench-ac"} {
		eng, n := builds[key]()
		got := csmaDigest(t, eng, n)
		t.Logf("%q: %q,", key, got)
		if want := goldenCSMA[key]; got != want {
			t.Errorf("%s: digest %s, golden %s", key, got, want)
		}
	}
}
