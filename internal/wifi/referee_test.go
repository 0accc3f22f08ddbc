package wifi

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cellfi/internal/propagation"
	"cellfi/internal/sim"
	"cellfi/internal/topo"
)

// refereeCSMA is the equivalence referee of the MAC: the MAC-stream
// digest (macStream, 4 bytes) of every refereeRun, keyed
// "params/APsxclients", one digest per seed 1..refereeSeeds in order.
// Where TestCSMAGolden pins two long backlogged runs, these are many
// short ones whose queues drain and refill, so APs leave and re-enter
// contention at top-up instants, and countdowns that share a start
// instant, expire together or are cut by a frame at a slot boundary
// all occur. A change to how the MAC schedules its events must leave
// every digest here as it is.
//
// Re-roll (only with a change that means to move Wi-Fi results, said
// in CHANGES.md): go test -run TestCSMAReferee -v ./internal/wifi
// prints the table.
var refereeCSMA = map[string]string{
	"11af/6x6":    "56bc894c d7c9309e 5ed0c3a9 145370f6 4369375b e8bd5d8e 56aea062 2c350edd d596202e 3e27d673 262131ce 7710e572 6fbe1685 23041e71 adcb6a86 2d3d3a9e 3a032bca 691ce576 5979d658 e2b19f02",
	"11af/14x6":   "cb0cb07d e06d4e90 07915f06 f7c50860 831d4d7f fdac38f0 abb056ab 14da79d2 650842f0 43dee4dd 8824c49d 506dc1cf becae3ec 6a91779c 1660c7c0 68fdc1c2 d9eaaa13 9b4050cf bac0fea3 c5c0e2ab",
	"11af/10x3":   "28c6e2bb 00dc4857 10559cfe 999e7779 0c3553bd 014a999b f34a2506 1047adc9 4da4b536 8a5a4433 1df7da07 1f9350d9 dae0a550 c3dd9e3a b8f4c532 54917940 41d087c1 73c05344 d4cc6e74 ee118b8b",
	"11af20/6x6":  "7fda98ad 9ac7d41e 57dc8948 93a9c72a a5092b46 22205027 95e571b0 19dca4de 6c13c248 ff9b8e55 494991e2 68bcae12 8e9d2527 31c0af79 44a724c3 29360638 de2a2224 3f3029b2 90d4b50c 1ee24197",
	"11af20/14x6": "3d5b8a60 fa617c8d 7764b9b1 76ac4c1e 145a84f8 a231527e a565ab06 c2dec154 c3d4beb7 bbee3975 5c750630 91776edf 891438ab 56a9d35d 41a941fe 0142c4d1 071eabb3 ba4db4f9 76cbd709 c5faf338",
	"11af20/10x3": "471bcb04 4efd0f92 ec10c95b f034bbe0 9cbaf860 75f521c5 656c6dd6 6206cf94 4ca1124e b7fee8ed c2397f39 4299b8dc 2763cb7a 10e9b792 ec52d9e4 39466755 0f5e94cb 484826e4 9eb0e7ef 90ee4a0a",
	"11ac20/6x6":  "4818a047 2b07abfa dcb47a8a 64f0b96f fae04670 ce802f30 5bba9933 330ea34b 77a2a28e bc625104 876d2e89 96b86502 3a45d173 7ce0868b 638a2d14 11c9a178 87908fa3 982893d1 28e79c94 77d92ec2",
	"11ac20/14x6": "3786d21b 2715b938 b9a2695a fac75fac 5157e250 17fbf206 a5023036 af69838d 795dbdb7 aecd5401 50d9cb65 173d1365 d370eb1f fea7673d 95eac780 97bd6d38 5adb21d9 1045376f 8bcef7a4 65d76053",
	"11ac20/10x3": "ebf7d822 f5871376 80baa034 05d5e71c 131e33e3 73e22c91 f0f72c1b 12e9d788 7c2e029f 03958fa2 909abb40 368b9c1d 391175c1 6ce26cb2 156964b5 1ba1e022 fa5bf15f 0f03597a 6de24b8a 7ce773bb",
}

const refereeSeeds = 20

// refereeParams and refereeShapes span the referee: the three shipped
// Params on topo.Paper(APs, clients) shapes.
var (
	refereeParams = []struct {
		name string
		p    func() Params
	}{{"11af", Params11af}, {"11af20", Params11af20}, {"11ac20", Params11ac20}}
	refereeShapes = [][2]int{{6, 6}, {14, 6}, {10, 3}}
)

// refereeRun runs one referee scenario for 400 ms: the 802.11af
// flavours outdoors at 30 dBm (Fig. 9), 802.11ac on the short-range
// indoor model at 20 dBm with 290 m cells (Fig. 2). Every 50 ms, from
// t = 0, each client's queue gets 0 to 8,000 whole bytes from a seeded
// stream (a third of the draws add nothing).
func refereeRun(p Params, shape [2]int, seed int64) string {
	tp := topo.Paper(shape[0], shape[1])
	model, power := propagation.DefaultUrban(seed), 30.0
	if p.Name == Params11ac20().Name {
		tp.CellRadius = 290
		model, power = propagation.IndoorShortRange(seed), 20
	}
	layout := topo.Generate(tp, seed)
	eng := sim.NewEngine(seed)
	n := NewNetwork(eng, model, p)
	id := 1
	for i, apPos := range layout.APs {
		ap := n.AddAP(id, apPos, power)
		id++
		for _, cp := range layout.Clients[i] {
			n.AddClient(id, cp, power, ap)
			id++
		}
	}
	load := rand.New(rand.NewSource(seed))
	top := func() {
		for _, ap := range n.APs() {
			for _, c := range ap.Clients() {
				if b := load.Intn(12000) - 4000; b > 0 {
					ap.Enqueue(c, 8*int64(b))
				}
			}
		}
	}
	m := newMACStream()
	eng.SetRecorder(m)
	eng.EveryAt(0, 50*time.Millisecond, top)
	eng.Run(400 * time.Millisecond)
	return m.sum(n, 4)
}

func TestCSMAReferee(t *testing.T) {
	var table strings.Builder
	for _, rp := range refereeParams {
		for _, shape := range refereeShapes {
			key := fmt.Sprintf("%s/%dx%d", rp.name, shape[0], shape[1])
			got := make([]string, refereeSeeds)
			for s := range got {
				got[s] = refereeRun(rp.p(), shape, int64(s+1))
			}
			fmt.Fprintf(&table, "\t%q: %q,\n", key, strings.Join(got, " "))
			want := strings.Fields(refereeCSMA[key])
			for s := range got {
				w := "(none)"
				if s < len(want) {
					w = want[s]
				}
				if got[s] != w {
					t.Errorf("%s seed %d: MAC-stream digest %s, referee %s", key, s+1, got[s], w)
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("table:\n%s", table.String())
	}
}

// TestCountdownTimingBounds checks, for every shipped Params, the
// timing inequalities the one-event countdown's same-instant ordering
// argument rests on (see Node.reschedule).
func TestCountdownTimingBounds(t *testing.T) {
	const topUp = 50 * time.Millisecond // the experiments' queue top-up period
	for _, p := range []Params{Params11af(), Params11af20(), Params11ac20()} {
		if p.DIFS <= p.SlotTime {
			t.Errorf("%s: DIFS %v not longer than a slot %v", p.Name, p.DIFS, p.SlotTime)
		}
		if p.SIFS >= p.DIFS {
			t.Errorf("%s: SIFS %v not shorter than DIFS %v", p.Name, p.SIFS, p.DIFS)
		}
		// Every frame carries the preamble, so the shortest frame on
		// the air is at least PreambleDur long.
		if p.PreambleDur <= p.DIFS {
			t.Errorf("%s: a preamble (%v) is not longer than DIFS %v", p.Name, p.PreambleDur, p.DIFS)
		}
		if longest := p.DIFS + time.Duration(p.CWMax)*p.SlotTime; longest >= topUp {
			t.Errorf("%s: longest countdown %v not shorter than the %v top-up period", p.Name, longest, topUp)
		}
	}
}
