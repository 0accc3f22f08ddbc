package lte

import (
	"testing"
	"time"
)

func TestBandCandidates(t *testing.T) {
	b := Band{LowHz: 470e6, HighHz: 470.5e6, RasterHz: 100e3}
	if got := b.Candidates(); got != 6 {
		t.Fatalf("candidates = %d, want 6 (both edges inclusive)", got)
	}
	if (Band{LowHz: 1, HighHz: 0, RasterHz: 1}).Candidates() != 0 {
		t.Fatal("inverted band should contribute nothing")
	}
}

// Section 6.2 calibration: a multi-band scan takes the measured ~56 s,
// dominated by the wide high bands.
func TestFullScanMatchesMeasured56s(t *testing.T) {
	s := NewCellSearcher()
	got := s.FullScanTime()
	want := 56 * time.Second
	if got < want-6*time.Second || got > want+6*time.Second {
		t.Fatalf("full scan = %v, want about %v", got, want)
	}
}

// The paper's optimization: restricting the scan to TVWS-overlapping
// bands cuts reconnection by an order of magnitude.
func TestRestrictToTVWS(t *testing.T) {
	full := NewCellSearcher().FullScanTime()
	s := NewCellSearcher().RestrictToTVWS()
	for _, b := range s.Bands {
		if b.LowHz >= 800e6 {
			t.Fatalf("band %s survived the TVWS restriction", b.Name)
		}
	}
	if len(s.Bands) == 0 {
		t.Fatal("the TVWS restriction dropped the TVWS band")
	}
	restricted := s.FullScanTime()
	if restricted > full/3 {
		t.Fatalf("TVWS-only scan %v should be far below the full %v", restricted, full)
	}
}

func TestScanTimeArithmetic(t *testing.T) {
	s := &CellSearcher{
		Bands:             []Band{{LowHz: 0, HighHz: 1e6, RasterHz: 100e3}},
		DwellPerCandidate: time.Millisecond,
		SyncAndSIB:        time.Second,
	}
	if got := s.TotalCandidates(); got != 11 {
		t.Fatalf("candidates = %d", got)
	}
	want := 11*time.Millisecond + time.Second
	if got := s.FullScanTime(); got != want {
		t.Fatalf("full scan = %v, want %v", got, want)
	}
}
