package core_test

import (
	"fmt"
	"math/rand"

	"cellfi/internal/core"
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
