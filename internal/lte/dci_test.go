package lte

import (
	"testing"
	"testing/quick"
)

func TestDCIRoundTrip(t *testing.T) {
	d := DCI{RNTI: 61, RBGMask: 0b1010110, CQI: 9, HARQProcess: 3, NewData: true}
	raw, err := d.Marshal(BW5MHz)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 8 {
		t.Fatalf("DCI encodes to %d bytes, want 8", len(raw))
	}
	got, err := UnmarshalDCI(raw, BW5MHz)
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("round trip: %+v vs %+v", got, d)
	}
}

func TestDCIQuickRoundTrip(t *testing.T) {
	f := func(rnti uint16, mask uint32, cqi, harq uint8, nd bool) bool {
		d := DCI{
			RNTI:        rnti,
			RBGMask:     mask%(1<<25-1) + 1, // nonzero, within 25 bits
			CQI:         cqi%15 + 1,
			HARQProcess: harq % 8,
			NewData:     nd,
		}
		raw, err := d.Marshal(BW20MHz)
		if err != nil {
			return false
		}
		got, err := UnmarshalDCI(raw, BW20MHz)
		return err == nil && got == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDCIValidation(t *testing.T) {
	base := DCI{RNTI: 1, RBGMask: 1, CQI: 5, HARQProcess: 0, NewData: true}
	cases := []func(*DCI){
		func(d *DCI) { d.CQI = 0 },
		func(d *DCI) { d.CQI = 16 },
		func(d *DCI) { d.HARQProcess = 8 },
		func(d *DCI) { d.RBGMask = 0 },
		func(d *DCI) { d.RBGMask = 1 << 13 }, // beyond a 5 MHz carrier
	}
	for i, mutate := range cases {
		d := base
		mutate(&d)
		if _, err := d.Marshal(BW5MHz); err == nil {
			t.Errorf("case %d: invalid DCI marshalled", i)
		}
	}
}

// Each rejection path of the decoder names what was wrong with the
// input (the marshal side's checks are TestDCIValidation's).
func TestUnmarshalDCIErrors(t *testing.T) {
	valid, err := DCI{RNTI: 61, RBGMask: 0b1010110, CQI: 9, HARQProcess: 3, NewData: true}.Marshal(BW5MHz)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   []byte
		want string // "" = accepted
	}{
		{"nil", nil, "lte: DCI truncated"},
		{"empty", []byte{}, "lte: DCI truncated"},
		{"magic only", []byte{dciMagic}, "lte: DCI truncated"},
		{"seven bytes", valid[:7], "lte: DCI truncated"},
		{"wrong magic", []byte{0x00, 1, 2, 3, 4, 5, 6, 7}, "lte: not a DCI grant"},
		{"CQI 0", []byte{dciMagic, 0, 0, 0, 0, 0, 0, 0}, "lte: decoded DCI invalid: lte: DCI CQI 0 out of range"},
		{"valid", valid, ""},
		{"valid, trailing bytes", append(append([]byte{}, valid...), 0xff), ""},
	}
	for _, c := range cases {
		_, err := UnmarshalDCI(c.in, BW5MHz)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("%s: error %q, want %q", c.name, got, c.want)
		}
	}
}

func TestDCISubchannels(t *testing.T) {
	d := DCI{RBGMask: 0b1000000000101}
	got := d.Subchannels(BW5MHz)
	want := []int{0, 2, 12}
	if len(got) != len(want) {
		t.Fatalf("subchannels = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("subchannels = %v, want %v", got, want)
		}
	}
}

// The scheduler -> control channel path: an allocation becomes one DCI
// per scheduled client whose mask reproduces exactly the granted set.
func TestAppendGrants(t *testing.T) {
	// UE 7 holds subchannels 0, 1 and 12 (12 at its weakest CQI, 4);
	// UE 3 holds subchannel 5. Deliberately listed out of ID order to
	// exercise the ascending-RNTI output sort.
	cqi7 := uniformCQI(BW5MHz, 11)
	cqi7[12] = 4
	ues := []*SchedUE{
		{ID: 7, SubbandCQI: cqi7},
		{ID: 3, SubbandCQI: uniformCQI(BW5MHz, 11)},
	}
	var scratch AllocScratch
	scratch.Reset(BW5MHz.Subchannels(), len(ues))
	scratch.UEOf[0] = 0
	scratch.UEOf[1] = 0
	scratch.UEOf[5] = 1
	scratch.UEOf[12] = 0
	grants := AppendGrants(nil, BW5MHz, &scratch, ues)
	if len(grants) != 2 {
		t.Fatalf("grants = %d, want 2", len(grants))
	}
	if grants[0].RNTI != 3 || grants[1].RNTI != 7 {
		t.Fatalf("grants not in ascending RNTI order: %d, %d", grants[0].RNTI, grants[1].RNTI)
	}
	byRNTI := map[uint16]DCI{}
	for _, g := range grants {
		if err := g.Validate(BW5MHz); err != nil {
			t.Fatal(err)
		}
		byRNTI[g.RNTI] = g
		// Codec round trip for every emitted grant.
		raw, err := g.Marshal(BW5MHz)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalDCI(raw, BW5MHz)
		if err != nil || back != g {
			t.Fatalf("grant round trip failed: %v", err)
		}
	}
	g7 := byRNTI[7]
	got := g7.Subchannels(BW5MHz)
	want := []int{0, 1, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UE 7 granted %v, want %v", got, want)
		}
	}
	// Transport format follows the worst granted sub-band.
	if g7.CQI != 4 {
		t.Fatalf("UE 7 CQI = %d, want the conservative 4", g7.CQI)
	}
	if byRNTI[3].RBGMask != 1<<5 {
		t.Fatalf("UE 3 mask = %b", byRNTI[3].RBGMask)
	}
	// Distinct HARQ processes.
	if grants[0].HARQProcess == grants[1].HARQProcess {
		t.Fatal("HARQ processes collide")
	}
}

func TestAppendGrantsEmpty(t *testing.T) {
	var scratch AllocScratch
	scratch.Reset(BW5MHz.Subchannels(), 0)
	if got := AppendGrants(nil, BW5MHz, &scratch, nil); len(got) != 0 {
		t.Fatalf("empty allocation produced %d grants", len(got))
	}
	// An unsized scratch (never Reset) must also yield no grants
	// rather than index out of range.
	var fresh AllocScratch
	if got := AppendGrants(nil, BW5MHz, &fresh, nil); len(got) != 0 {
		t.Fatalf("unsized scratch produced %d grants", len(got))
	}
}
