package lte

import (
	"errors"
	"fmt"
)

// System information broadcast. Section 4.2: once a channel is
// selected, the access point "sets the centre frequency (EARFCN) for
// downlink transmission and announces the uplink frequency in the LTE
// SIB control message, both in granularity of 100 kHz", along with the
// maximum transmit power the database allows. This file implements a
// compact bit-exact encoding of that broadcast — a simplified stand-in
// for the ASN.1 PER encoding real SIB1 uses, with the same fields and
// granularities.

// SIB1 carries the cell's operating parameters to clients.
type SIB1 struct {
	// CellID is the physical cell identity (0..503).
	CellID uint16
	// DownlinkEARFCN / UplinkEARFCN in 100 kHz units. TDD CellFi uses
	// the same value for both, but the encoding keeps them separate
	// as the standard does.
	DownlinkEARFCN uint32
	UplinkEARFCN   uint32
	// MaxTxPowerDBm is the database's EIRP cap for clients, encoded
	// in whole dB from -30..+33 (6 bits).
	MaxTxPowerDBm int8
	// TDDConfigIndex selects the UL/DL configuration (0..6).
	TDDConfigIndex uint8
	// Bandwidth in MHz (5, 10, 15, 20).
	Bandwidth Bandwidth
}

// sibMagic guards against decoding garbage.
const sibMagic = 0xC5

// field widths (bits)
const (
	cellIDBits = 9
	earfcnBits = 18 // covers 100 kHz units up to 26.2 GHz
	powerBits  = 6
	tddBits    = 3
	bwBits     = 2
)

var bwCode = map[Bandwidth]uint64{BW5MHz: 0, BW10MHz: 1, BW15MHz: 2, BW20MHz: 3}

// bitWriter packs big-endian bit fields.
type bitWriter struct {
	buf  []byte
	nbit uint
}

func (w *bitWriter) write(v uint64, bits uint) {
	for i := int(bits) - 1; i >= 0; i-- {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		if v&(1<<uint(i)) != 0 {
			w.buf[w.nbit/8] |= 1 << (7 - w.nbit%8)
		}
		w.nbit++
	}
}

// Validate checks field ranges before encoding.
func (s SIB1) Validate() error {
	if s.CellID > 503 {
		return fmt.Errorf("lte: cell ID %d out of range 0..503", s.CellID)
	}
	if s.DownlinkEARFCN >= 1<<earfcnBits || s.UplinkEARFCN >= 1<<earfcnBits {
		return errors.New("lte: EARFCN out of range")
	}
	if s.MaxTxPowerDBm < -30 || s.MaxTxPowerDBm > 33 {
		return fmt.Errorf("lte: max TX power %d outside -30..33 dBm", s.MaxTxPowerDBm)
	}
	if s.TDDConfigIndex > 6 {
		return fmt.Errorf("lte: TDD configuration %d out of range 0..6", s.TDDConfigIndex)
	}
	if _, ok := bwCode[s.Bandwidth]; !ok {
		return fmt.Errorf("lte: bandwidth %d MHz not encodable", s.Bandwidth)
	}
	return nil
}

// Marshal encodes the broadcast into its on-air byte form.
func (s SIB1) Marshal() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w := &bitWriter{}
	w.write(sibMagic, 8)
	w.write(uint64(s.CellID), cellIDBits)
	w.write(uint64(s.DownlinkEARFCN), earfcnBits)
	w.write(uint64(s.UplinkEARFCN), earfcnBits)
	w.write(uint64(s.MaxTxPowerDBm+30), powerBits) // offset binary
	w.write(uint64(s.TDDConfigIndex), tddBits)
	w.write(bwCode[s.Bandwidth], bwBits)
	return w.buf, nil
}

// SIB1ForLease builds the broadcast a CellFi AP transmits after the
// channel selector hands it a lease: downlink and uplink EARFCN on the
// leased centre (TDD: identical), the database's power cap, and the
// evaluation's TDD configuration.
func SIB1ForLease(cellID uint16, centerFreqHz float64, maxEIRPdBm float64, bw Bandwidth) (SIB1, error) {
	earfcn := uint32(EARFCNFromFreq(centerFreqHz))
	cap := int8(maxEIRPdBm)
	if float64(cap) > 33 {
		cap = 33
	}
	s := SIB1{
		CellID:         cellID,
		DownlinkEARFCN: earfcn,
		UplinkEARFCN:   earfcn,
		MaxTxPowerDBm:  cap,
		TDDConfigIndex: 4,
		Bandwidth:      bw,
	}
	return s, s.Validate()
}
