package core_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"cellfi/internal/core"
	"cellfi/internal/faults"
	"cellfi/internal/geo"
	"cellfi/internal/paws"
	"cellfi/internal/spectrum"
)

// The share calculation of Section 5.2: an AP serving 6 clients that
// senses 12 active clients in its neighbourhood claims half of the 13
// subchannels.
func ExampleShare() {
	fmt.Println(core.Share(13, 6, 12))
	fmt.Println(core.Share(13, 6, 6)) // alone: the whole channel
	fmt.Println(core.Share(13, 1, 26))
	// Output:
	// 6
	// 13
	// 1
}

// A controller acquires its share, suffers interference on one
// subchannel until the exponential bucket drains, and hops off it.
func ExampleController() {
	ctl := core.NewController(13, rand.New(rand.NewSource(7)))
	held := ctl.Epoch(core.EpochInput{TargetShare: 3})
	fmt.Println("held:", len(held))

	victim := held[0]
	for i := 0; i < 100 && ctl.Holds(victim); i++ {
		ctl.Epoch(core.EpochInput{
			TargetShare: 3,
			BadFrac:     map[int]float64{victim: 1},
			SensedBusy:  map[int]bool{victim: true},
		})
	}
	fmt.Println("still holds the interfered subchannel:", ctl.Holds(victim))
	fmt.Println("share preserved:", len(ctl.Held()) == 3)
	// Output:
	// held: 3
	// still holds the interfered subchannel: false
	// share preserved: true
}

// The interference detector trips only after a sustained CQI drop —
// ten consecutive reports below 60% of the windowed maximum.
func ExampleInterferenceDetector() {
	det := core.NewInterferenceDetector(100)
	for i := 0; i < 50; i++ {
		det.Observe(12) // clean baseline
	}
	fmt.Println("after one drop:", det.Observe(5)) // one bad report: not enough
	tripped := false
	for i := 0; i < 10; i++ {
		tripped = det.Observe(5)
	}
	fmt.Println("after a sustained drop:", tripped)
	// Output:
	// after one drop: false
	// after a sustained drop: true
}

// Spectrum database walkthrough: drive a CellFi access point's channel
// selector against a PAWS server, then revoke the channel (a wireless
// microphone registers) and watch the AP vacate within the regulatory
// deadline and reacquire afterwards — the Figure 6 cycle, end to end
// over the real PAWS wire encoding, served in-process.
func Example_spectrumDatabase() {
	// A virtual clock plays out a 6-minute scenario instantly.
	now := time.Date(2017, 12, 12, 9, 0, 0, 0, time.UTC)
	start := now

	registry := spectrum.NewRegistry(spectrum.EU)
	server := paws.NewServer(registry)
	server.Now = func() time.Time { return now }

	apPos := geo.Point{X: 250, Y: 400}
	client := paws.NewClient("http://pawsdb.virtual/paws", "AP-EXAMPLE")
	client.HTTPClient = &http.Client{Transport: faults.HandlerTransport{Handler: server}}
	if _, err := client.Init(apPos); err != nil {
		fmt.Println(err)
		return
	}
	selector := core.NewChannelSelector(client, apPos, 15)

	say := func(format string, args ...any) {
		fmt.Printf("[t=%6s] %s\n", now.Sub(start), fmt.Sprintf(format, args...))
	}

	// 1. Acquire.
	if _, err := selector.Refresh(now); err != nil {
		fmt.Println(err)
		return
	}
	lease := selector.Current()
	say("acquired TV channel %d (EARFCN %d, cap %.0f dBm EIRP)",
		lease.Channel, lease.EARFCN, lease.MaxEIRPdBm)

	// 2. A production registers wireless microphones on every channel
	// for five minutes, one minute into the run.
	revokeAt := now.Add(time.Minute)
	server.Lock()
	for _, ch := range spectrum.EU.Channels() {
		_ = registry.AddIncumbent(spectrum.Incumbent{
			Kind: spectrum.WirelessMic, Channel: ch, Location: apPos,
			ProtectRadius: 3000, From: revokeAt, To: revokeAt.Add(5 * time.Minute),
		})
	}
	server.Unlock()
	say("wireless-microphone event registered: all channels protected from t=1m for 5m")

	// 3. Poll once a second, as the paper's deployment does.
	for i := 0; i < 500; i++ {
		now = now.Add(time.Second)
		action, err := selector.Refresh(now)
		if err != nil {
			continue
		}
		switch action {
		case core.Vacated:
			say("channel gone from the database -> radio OFF (ETSI allows %v; the paper measured %v)",
				core.VacateDeadline, core.MeasuredVacateDelay)
		case core.Acquired:
			l := selector.Current()
			say("channel %d back -> radio reboots (%v) and clients re-attach (%v)",
				l.Channel, core.MeasuredAPRebootDelay, core.MeasuredClientReconnectDelay)
			say("traffic resumes at t=%s",
				now.Sub(start)+core.MeasuredAPRebootDelay+core.MeasuredClientReconnectDelay)
			return
		}
	}
	fmt.Println("scenario did not complete")
	// Output:
	// [t=    0s] acquired TV channel 21 (EARFCN 4740, cap 36 dBm EIRP)
	// [t=    0s] wireless-microphone event registered: all channels protected from t=1m for 5m
	// [t=  1m0s] channel gone from the database -> radio OFF (ETSI allows 1m0s; the paper measured 2s)
	// [t=  6m0s] channel 21 back -> radio reboots (1m36s) and clients re-attach (56s)
	// [t=  6m0s] traffic resumes at t=8m32s
}
