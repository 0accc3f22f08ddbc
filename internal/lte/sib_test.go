package lte

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

var bwFromCode = [4]Bandwidth{BW5MHz, BW10MHz, BW15MHz, BW20MHz}

// bitReader unpacks big-endian bit fields.
type bitReader struct {
	buf  []byte
	nbit uint
}

func (r *bitReader) read(bits uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < bits; i++ {
		byteIdx := r.nbit / 8
		if int(byteIdx) >= len(r.buf) {
			return 0, errors.New("lte: SIB truncated")
		}
		v <<= 1
		if r.buf[byteIdx]&(1<<(7-r.nbit%8)) != 0 {
			v |= 1
		}
		r.nbit++
	}
	return v, nil
}

// unmarshalSIB1 decodes an on-air broadcast: the referee the
// round-trip tests hold Marshal to.
func unmarshalSIB1(b []byte) (SIB1, error) {
	r := &bitReader{buf: b}
	magic, err := r.read(8)
	if err != nil {
		return SIB1{}, err
	}
	if magic != sibMagic {
		return SIB1{}, errors.New("lte: not a SIB1 broadcast")
	}
	var s SIB1
	fields := []struct {
		bits uint
		set  func(uint64)
	}{
		{cellIDBits, func(v uint64) { s.CellID = uint16(v) }},
		{earfcnBits, func(v uint64) { s.DownlinkEARFCN = uint32(v) }},
		{earfcnBits, func(v uint64) { s.UplinkEARFCN = uint32(v) }},
		{powerBits, func(v uint64) { s.MaxTxPowerDBm = int8(v) - 30 }},
		{tddBits, func(v uint64) { s.TDDConfigIndex = uint8(v) }},
		{bwBits, func(v uint64) { s.Bandwidth = bwFromCode[v] }},
	}
	for _, f := range fields {
		v, err := r.read(f.bits)
		if err != nil {
			return SIB1{}, err
		}
		f.set(v)
	}
	if err := s.Validate(); err != nil {
		return SIB1{}, fmt.Errorf("lte: decoded SIB invalid: %w", err)
	}
	return s, nil
}

func validSIB() SIB1 {
	return SIB1{
		CellID:         101,
		DownlinkEARFCN: 4740, // 474.0 MHz in 100 kHz units
		UplinkEARFCN:   4740,
		MaxTxPowerDBm:  20,
		TDDConfigIndex: 4,
		Bandwidth:      BW5MHz,
	}
}

func TestSIBRoundTrip(t *testing.T) {
	s := validSIB()
	raw, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshalSIB1(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, s)
	}
	// The broadcast is compact: 8+9+18+18+6+3+2 = 64 bits = 8 bytes.
	if len(raw) != 8 {
		t.Fatalf("SIB encodes to %d bytes, want 8", len(raw))
	}
}

func TestSIBQuickRoundTrip(t *testing.T) {
	f := func(cellID uint16, dl, ul uint32, pwr int8, tdd, bwSel uint8) bool {
		s := SIB1{
			CellID:         cellID % 504,
			DownlinkEARFCN: dl % (1 << 18),
			UplinkEARFCN:   ul % (1 << 18),
			MaxTxPowerDBm:  int8((int(pwr)%64+64)%64 - 30),
			TDDConfigIndex: tdd % 7,
			Bandwidth:      bwFromCode[bwSel%4],
		}
		raw, err := s.Marshal()
		if err != nil {
			return false
		}
		got, err := unmarshalSIB1(raw)
		return err == nil && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSIBValidation(t *testing.T) {
	cases := []func(*SIB1){
		func(s *SIB1) { s.CellID = 504 },
		func(s *SIB1) { s.DownlinkEARFCN = 1 << 18 },
		func(s *SIB1) { s.MaxTxPowerDBm = 40 },
		func(s *SIB1) { s.MaxTxPowerDBm = -31 },
		func(s *SIB1) { s.TDDConfigIndex = 7 },
		func(s *SIB1) { s.Bandwidth = Bandwidth(7) },
	}
	for i, mutate := range cases {
		s := validSIB()
		mutate(&s)
		if _, err := s.Marshal(); err == nil {
			t.Errorf("case %d: invalid SIB marshalled", i)
		}
	}
}

func TestSIBDecodeErrors(t *testing.T) {
	if _, err := unmarshalSIB1(nil); err == nil {
		t.Error("empty broadcast decoded")
	}
	if _, err := unmarshalSIB1([]byte{0x00, 1, 2, 3, 4, 5, 6, 7}); err == nil {
		t.Error("wrong magic decoded")
	}
	raw, _ := validSIB().Marshal()
	if _, err := unmarshalSIB1(raw[:4]); err == nil {
		t.Error("truncated broadcast decoded")
	}
	// Corrupt the cell ID field beyond its range (set all 9 bits).
	bad := append([]byte(nil), raw...)
	bad[1] = 0xFF
	bad[2] |= 0x80
	if _, err := unmarshalSIB1(bad); err == nil {
		t.Error("out-of-range decoded SIB accepted")
	}
}

// The channel-selection handoff of Section 4.2: lease -> broadcast,
// carrying the EARFCN at 100 kHz granularity and the database's power
// cap (clamped to the encodable ceiling).
func TestSIB1ForLease(t *testing.T) {
	s, err := SIB1ForLease(7, 474e6, 36, BW5MHz)
	if err != nil {
		t.Fatal(err)
	}
	if s.DownlinkEARFCN != 4740 || s.UplinkEARFCN != 4740 {
		t.Fatalf("EARFCN = %d/%d, want 4740", s.DownlinkEARFCN, s.UplinkEARFCN)
	}
	if s.MaxTxPowerDBm != 33 {
		t.Fatalf("power cap %d, want the encodable ceiling 33", s.MaxTxPowerDBm)
	}
	raw, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := unmarshalSIB1(raw)
	if err != nil || back != s {
		t.Fatalf("lease SIB round trip failed: %v", err)
	}
}
