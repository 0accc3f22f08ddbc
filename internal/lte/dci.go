package lte

import (
	"errors"
	"fmt"
)

// Downlink control information. Section 3.2: "an access point is in
// charge of scheduling both uplink and downlink traffic. It assigns
// multiple resource blocks to various clients and the assignment is
// communicated over the control channel." This file implements a
// compact DCI format-1-style grant — RNTI, resource-block-group
// bitmap, MCS (CQI index here), HARQ process and new-data indicator —
// with a bit-exact codec, mirroring how the per-subframe scheduler's
// output actually reaches clients.

// DCI is one downlink grant as carried on the PDCCH.
type DCI struct {
	// RNTI addresses the client (16 bits).
	RNTI uint16
	// RBGMask selects resource-block groups (subchannels); bit k
	// grants subchannel k. Width depends on the carrier.
	RBGMask uint32
	// CQI is the transport format (1..15; 4 bits).
	CQI uint8
	// HARQProcess identifies the stop-and-wait process (3 bits).
	HARQProcess uint8
	// NewData toggles between fresh blocks and retransmissions.
	NewData bool
}

const dciMagic = 0xD1

// AppendGrants builds per-client DCIs from the subframe's allocation in
// scratch and appends them to dst, which it returns. Grants come out in
// ascending RNTI order with HARQ process numbers assigned round-robin,
// and each grant's CQI is the worst sub-band CQI across its granted
// subchannels (floored at 1 so the grant stays encodable). The scan
// over scratch.UEOf runs in ascending subchannel order, so the output
// is fully deterministic; scratch working buffers are reused, so
// steady-state calls with a pre-grown dst do not allocate.
func AppendGrants(dst []DCI, bw Bandwidth, s *AllocScratch, ues []*SchedUE) []DCI {
	n := bw.Subchannels()
	if len(s.UEOf) < n {
		n = len(s.UEOf) // scratch not sized for this carrier: trust it
	}
	if cap(s.masks) < len(ues) {
		s.masks = make([]uint32, len(ues))
	}
	if cap(s.worst) < len(ues) {
		s.worst = make([]int32, len(ues))
	}
	s.masks = s.masks[:len(ues)]
	s.worst = s.worst[:len(ues)]
	for i := range s.masks {
		s.masks[i] = 0
	}
	s.order = s.order[:0]
	for sc := 0; sc < n; sc++ {
		ui := s.UEOf[sc]
		if ui < 0 {
			continue
		}
		// A zero mask doubles as the "not seen yet" sentinel: any
		// granted UE gets at least one bit set right below.
		if s.masks[ui] == 0 {
			s.order = append(s.order, ui)
			s.worst[ui] = 15
		}
		s.masks[ui] |= 1 << uint(sc)
		c := 0
		if u := ues[ui]; sc < len(u.SubbandCQI) {
			c = u.SubbandCQI[sc]
		}
		if int32(c) < s.worst[ui] {
			s.worst[ui] = int32(c)
		}
	}
	ord := s.order
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && ues[ord[j]].ID < ues[ord[j-1]].ID; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	for i, ui := range ord {
		cqi := s.worst[ui]
		if cqi < 1 {
			cqi = 1
		}
		dst = append(dst, DCI{
			RNTI:        uint16(ues[ui].ID),
			RBGMask:     s.masks[ui],
			CQI:         uint8(cqi),
			HARQProcess: uint8(i % 8),
			NewData:     true,
		})
	}
	return dst
}

// Validate checks field ranges against the carrier.
func (d DCI) Validate(bw Bandwidth) error {
	if d.CQI < 1 || d.CQI > 15 {
		return fmt.Errorf("lte: DCI CQI %d out of range", d.CQI)
	}
	if d.HARQProcess > 7 {
		return fmt.Errorf("lte: HARQ process %d out of range", d.HARQProcess)
	}
	if d.RBGMask == 0 {
		return errors.New("lte: empty DCI grant")
	}
	if d.RBGMask >= 1<<uint(bw.Subchannels()) {
		return fmt.Errorf("lte: RBG mask %x exceeds the %d-subchannel carrier",
			d.RBGMask, bw.Subchannels())
	}
	return nil
}

// dciBytes is the encoded size: 57 bits rounded up.
const dciBytes = 8

// MarshalAppend encodes the grant — magic(8) rnti(16) mask(25) cqi(4)
// harq(3) nd(1) = 57 bits -> 8 bytes — appending to dst, which it
// returns. The mask width is fixed at the 20 MHz carrier's 25
// subchannels so one codec serves every bandwidth. The fields are
// packed into a single big-endian word, which produces exactly the
// bytes the original bit-at-a-time writer did without its per-grant
// buffer growth.
func (d DCI) MarshalAppend(dst []byte, bw Bandwidth) ([]byte, error) {
	if err := d.Validate(bw); err != nil {
		return nil, err
	}
	nd := uint64(0)
	if d.NewData {
		nd = 1
	}
	v := uint64(dciMagic)<<49 | uint64(d.RNTI)<<33 | uint64(d.RBGMask)<<8 |
		uint64(d.CQI)<<4 | uint64(d.HARQProcess)<<1 | nd
	v <<= 64 - 57 // left-align: the stream is MSB-first
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v)), nil
}

// UnmarshalDCI decodes a grant and validates it against the carrier.
func UnmarshalDCI(b []byte, bw Bandwidth) (DCI, error) {
	if len(b) == 0 {
		return DCI{}, errors.New("lte: DCI truncated")
	}
	if b[0] != dciMagic {
		return DCI{}, errors.New("lte: not a DCI grant")
	}
	if len(b) < dciBytes {
		return DCI{}, errors.New("lte: DCI truncated")
	}
	v := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	v >>= 64 - 57
	d := DCI{
		RNTI:        uint16(v >> 33),
		RBGMask:     uint32(v>>8) & (1<<25 - 1),
		CQI:         uint8(v>>4) & 0xF,
		HARQProcess: uint8(v>>1) & 0x7,
		NewData:     v&1 == 1,
	}
	if err := d.Validate(bw); err != nil {
		return DCI{}, fmt.Errorf("lte: decoded DCI invalid: %w", err)
	}
	return d, nil
}
