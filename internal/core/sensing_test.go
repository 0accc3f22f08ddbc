package core

import (
	"math/rand"
	"testing"
)

func TestShareCalculation(t *testing.T) {
	cases := []struct {
		s, own, sensed, want int
	}{
		{13, 6, 6, 13},  // alone: everything
		{13, 6, 12, 6},  // half the neighbourhood: half the channel
		{13, 3, 12, 3},  // quarter
		{13, 1, 26, 1},  // floor at one subchannel
		{13, 0, 10, 0},  // no clients, no share
		{13, 6, 3, 13},  // sensing undercounts below own clients: clamp
		{25, 5, 10, 12}, // 20 MHz carrier
	}
	for _, c := range cases {
		if got := Share(c.s, c.own, c.sensed); got != c.want {
			t.Errorf("Share(%d,%d,%d) = %d, want %d", c.s, c.own, c.sensed, got, c.want)
		}
	}
}

// Frequency fair-sharing (Section 5.2): two APs with equal client
// counts sensing each other's clients end up with complementary,
// feasible shares.
func TestShareFairSplit(t *testing.T) {
	s1 := Share(13, 6, 12)
	s2 := Share(13, 6, 12)
	if s1+s2 > 13 {
		t.Fatalf("shares %d+%d exceed the channel", s1, s2)
	}
	if s1 != s2 {
		t.Fatalf("symmetric APs got asymmetric shares %d vs %d", s1, s2)
	}
	// Asymmetric load: 9 vs 3 clients.
	a, b := Share(13, 9, 12), Share(13, 3, 12)
	if a <= b {
		t.Fatalf("more-loaded AP should get the bigger share: %d vs %d", a, b)
	}
	if a+b > 13 {
		t.Fatalf("shares %d+%d exceed the channel", a, b)
	}
}

func TestInterferenceDetectorTriggers(t *testing.T) {
	d := NewInterferenceDetector(100)
	// Establish a clean baseline of CQI 10.
	for i := 0; i < 50; i++ {
		if d.Observe(10) {
			t.Fatal("false trigger during clean baseline")
		}
	}
	// Interference drops CQI to 4 (< 60% of max 10): needs 10
	// consecutive reports to trip.
	for i := 0; i < DetectRunLength-1; i++ {
		if d.Observe(4) {
			t.Fatalf("tripped after only %d low reports", i+1)
		}
	}
	if !d.Observe(4) {
		t.Fatal("did not trip after the full run of low reports")
	}
	if !d.Detected() {
		t.Fatal("Detected() disagrees with Observe result")
	}
}

func TestInterferenceDetectorRunResets(t *testing.T) {
	d := NewInterferenceDetector(100)
	for i := 0; i < 50; i++ {
		d.Observe(10)
	}
	// Bursty weak interference with recoveries never trips: the run
	// resets on each good sample (the "should not trigger reallocation
	// on weak interference" property of Section 6.3.2).
	for i := 0; i < 100; i++ {
		if i%5 == 4 {
			d.Observe(10)
		} else {
			d.Observe(4)
		}
		if d.Detected() {
			t.Fatal("detector tripped on interrupted low runs")
		}
	}
}

func TestInterferenceDetectorBoundary(t *testing.T) {
	d := NewInterferenceDetector(100)
	for i := 0; i < 30; i++ {
		d.Observe(10)
	}
	// Exactly 60% of max (6 of 10) is NOT below the threshold.
	for i := 0; i < 50; i++ {
		if d.Observe(6) {
			t.Fatal("tripped at exactly the 60% boundary")
		}
	}
	// 5 of 10 is below.
	for i := 0; i < DetectRunLength; i++ {
		d.Observe(5)
	}
	if !d.Detected() {
		t.Fatal("did not trip below the boundary")
	}
}

func TestInterferenceDetectorAdaptsAfterWindow(t *testing.T) {
	d := NewInterferenceDetector(20)
	for i := 0; i < 30; i++ {
		d.Observe(12)
	}
	// Channel genuinely degrades to CQI 5 and stays there. Once the
	// old max slides out of the window, 5 becomes the new baseline
	// and the detector must stop crying interference.
	for i := 0; i < 20+DetectRunLength; i++ {
		d.Observe(5)
	}
	if d.Observe(5) {
		t.Fatal("detector did not adapt to a new, lower baseline")
	}
}

func TestInterferenceDetectorZeroWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window should panic")
		}
	}()
	NewInterferenceDetector(0)
}

// Measured behaviour check (Section 6.3.2): against a fading channel
// without interference the detector false-positives rarely; against
// strong interference it detects most episodes.
func TestDetectorErrorRatesOnSyntheticChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Clean channel: CQI fluctuates 9..12 with occasional deep fade.
	d := NewInterferenceDetector(500)
	fp := 0
	const n = 20000
	prevTripped := false
	for i := 0; i < n; i++ {
		cqi := 9 + rng.Intn(4)
		if rng.Float64() < 0.01 { // isolated deep fades
			cqi = 4
		}
		tripped := d.Observe(cqi)
		if tripped && !prevTripped {
			fp++
		}
		prevTripped = tripped
	}
	// Isolated fades never produce 10-in-a-row: expect ~0 triggers.
	if fp > 3 {
		t.Fatalf("%d false triggers on clean fading channel", fp)
	}

	// Strong interference episodes: CQI halves for 50-sample bursts.
	episodes, detected := 0, 0
	d2 := NewInterferenceDetector(500)
	for i := 0; i < 200; i++ {
		d2.Observe(10 + rng.Intn(3))
	}
	for ep := 0; ep < 100; ep++ {
		episodes++
		hit := false
		for i := 0; i < 50; i++ {
			// Interference with its own fading: occasionally an
			// interfered sample still reads high.
			cqi := 3 + rng.Intn(2)
			if rng.Float64() < 0.15 {
				cqi = 9
			}
			if d2.Observe(cqi) {
				hit = true
			}
		}
		if hit {
			detected++
		}
		for i := 0; i < 100; i++ { // recovery gap
			d2.Observe(10 + rng.Intn(3))
		}
	}
	rate := float64(detected) / float64(episodes)
	if rate < 0.7 {
		t.Fatalf("detection rate = %g, want >= 0.7 (paper: 0.8)", rate)
	}
}
