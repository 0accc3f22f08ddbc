// Package core implements the paper's contribution: the CellFi access
// point's decentralized interference-management and channel-selection
// components (Sections 4 and 5).
//
// Interference management splits into sensing (PRACH overhearing to
// count contending clients, CQI-drop detection of subchannel
// interference), distributed share calculation, and the randomized
// subchannel hopping procedure with exponential buckets and the
// channel re-use packing heuristic. Channel selection drives a PAWS
// spectrum database through the paws package and performs
// network-listen channel choice among the offered TV channels.
package core

import "math"

// Interference detector constants (Section 6.3.2).
const (
	// DetectDropFraction: interference is declared when CQI falls
	// below this fraction of the windowed maximum...
	DetectDropFraction = 0.6
	// DetectRunLength: ...for this many consecutive reports.
	DetectRunLength = 10
	// MeasuredFalsePositiveRate and MeasuredDetectionRate are the
	// test-bed error rates the large-scale simulation injects.
	MeasuredFalsePositiveRate = 0.02
	MeasuredDetectionRate     = 0.80
)

// InterferenceDetector implements the paper's CQI-drop estimator for
// one (client, subchannel) pair: it keeps the maximum CQI observed in a
// sliding window as the interference-free reference and declares
// interference after DetectRunLength consecutive reports below
// DetectDropFraction of that maximum.
type InterferenceDetector struct {
	window []int
	pos    int
	filled int
	run    int
}

// NewInterferenceDetector keeps the max over the given number of
// reports (at 2 ms per report, 500 covers one second).
func NewInterferenceDetector(windowSamples int) *InterferenceDetector {
	if windowSamples <= 0 {
		panic("core: detector window must be positive")
	}
	return &InterferenceDetector{window: make([]int, windowSamples)}
}

// Observe feeds one CQI report and returns whether interference is
// currently declared.
func (d *InterferenceDetector) Observe(cqi int) bool {
	d.window[d.pos] = cqi
	d.pos = (d.pos + 1) % len(d.window)
	if d.filled < len(d.window) {
		d.filled++
	}
	max := 0
	for i := 0; i < d.filled; i++ {
		if c := d.window[i]; c > max {
			max = c
		}
	}
	if max == 0 {
		d.run = 0
		return false
	}
	if float64(cqi) < DetectDropFraction*float64(max) {
		d.run++
	} else {
		d.run = 0
	}
	return d.run >= DetectRunLength
}

// Share calculation (Section 5.2): AP i with Ni associated active
// clients, sensing NPi active clients in its neighbourhood (its own
// included), reserves Si = Ni * S / NPi of the S subchannels. The
// result is clamped to [min(1, Ni), S] — an AP with clients always
// claims at least one subchannel, and sensing glitches can never push
// the share beyond the carrier.
func Share(totalSubchannels, ownClients, sensedClients int) int {
	if ownClients <= 0 {
		return 0
	}
	if sensedClients < ownClients {
		// Sensing must at least include our own clients.
		sensedClients = ownClients
	}
	s := int(math.Floor(float64(ownClients) * float64(totalSubchannels) / float64(sensedClients)))
	if s < 1 {
		s = 1
	}
	if s > totalSubchannels {
		s = totalSubchannels
	}
	return s
}
