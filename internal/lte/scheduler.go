package lte

import "math"

// MAC scheduling. Every downlink subframe the eNodeB assigns each
// schedulable subchannel (resource-block group) to at most one client.
// CellFi does not modify the scheduler: the interference-management
// component only restricts the *set* of subchannels handed to it
// (Section 4.3), and the scheduler remains free to place any client in
// any permitted subchannel.
//
// The per-TTI output lives in an AllocScratch the caller owns and
// reuses, so steady-state scheduling performs zero heap allocations:
// the cell allocates one scratch at attach time and every subframe
// writes over it. Consumers iterate UEOf in ascending subchannel
// order, which is explicitly deterministic (unlike the map-keyed
// allocation this replaced, whose range order was unspecified).

// SchedUE is a scheduler's view of one connected client.
type SchedUE struct {
	ID int
	// BacklogBits is the queued downlink data.
	BacklogBits int64
	// SubbandCQI is the latest per-subchannel CQI report (len =
	// subchannel count). Missing reports should be filled with the
	// wideband value.
	SubbandCQI []int
	// avgRate is the proportional-fair EWMA throughput in bits per
	// subframe. Managed by the scheduler.
	avgRate float64
}

// AllocScratch holds one subframe's allocation result plus the
// scheduler's working buffers. It is owned by the caller (one per
// cell), passed to every Allocate call, and reused across TTIs; after
// the first few calls it never allocates. The zero value is ready to
// use.
type AllocScratch struct {
	// UEOf[sc] is the index into the ues slice of the client granted
	// subchannel sc, or -1 when sc is unallocated. Its length is the
	// carrier's subchannel count. Iterating it in ascending index
	// order is the canonical deterministic traversal.
	UEOf []int32
	// Served[i] is the number of bits served to ues[i] this subframe.
	Served []int64

	// Internal working storage, reused across calls.
	cands []int32 // round-robin: backlogged candidate indices
	masks []uint32
	worst []int32
	order []int32
	buf   []byte // DCI marshal scratch (used by CellSim)
}

// Reset sizes the scratch for a carrier with the given subchannel
// count and UE population, clearing UEOf and Served. Allocate
// implementations call it on entry; buffers grow once and are reused.
func (s *AllocScratch) Reset(subchannels, ues int) {
	if cap(s.UEOf) < subchannels {
		s.UEOf = make([]int32, subchannels)
	}
	s.UEOf = s.UEOf[:subchannels]
	for i := range s.UEOf {
		s.UEOf[i] = -1
	}
	if cap(s.Served) < ues {
		s.Served = make([]int64, ues)
	}
	s.Served = s.Served[:ues]
	for i := range s.Served {
		s.Served[i] = 0
	}
}

// Scheduler assigns allowed subchannels to clients each downlink
// subframe, writing the allocation and the per-UE served bits into
// scratch.
type Scheduler interface {
	// Allocate may assume every UE's SubbandCQI covers every
	// subchannel in allowed. It must drain BacklogBits of scheduled
	// UEs by the amount served. It resets and overwrites scratch; the
	// caller owns the scratch and reuses it across subframes.
	Allocate(scratch *AllocScratch, bw Bandwidth, allowed []int, ues []*SchedUE)
}

// serve grants subchannel sc of bw to u and returns the bits served.
func serve(bw Bandwidth, sc int, u *SchedUE) int64 {
	cqi := 0
	if sc < len(u.SubbandCQI) {
		cqi = u.SubbandCQI[sc]
	}
	bits := int64(TransportBlockBits(cqi, bw.SubchannelRBs(sc)))
	if bits > u.BacklogBits {
		bits = u.BacklogBits
	}
	u.BacklogBits -= bits
	return bits
}

// RoundRobin cycles through backlogged clients, one subchannel at a
// time, regardless of channel quality.
type RoundRobin struct {
	next int
}

// Allocate implements Scheduler.
func (r *RoundRobin) Allocate(s *AllocScratch, bw Bandwidth, allowed []int, ues []*SchedUE) {
	s.Reset(bw.Subchannels(), len(ues))
	for _, sc := range allowed {
		s.cands = s.cands[:0]
		for i, u := range ues {
			if u.BacklogBits > 0 {
				s.cands = append(s.cands, int32(i))
			}
		}
		if len(s.cands) == 0 {
			break
		}
		i := s.cands[r.next%len(s.cands)]
		r.next++
		bits := serve(bw, sc, ues[i])
		if bits == 0 {
			continue
		}
		s.UEOf[sc] = i
		s.Served[i] += bits
	}
}

// ProportionalFair maximizes sum log-throughput: each subchannel goes
// to the client with the highest instantaneous-rate / average-rate
// ratio, exploiting multi-user diversity across sub-bands (the standard
// LTE policy).
type ProportionalFair struct{}

// pfBeta is the average rate's EWMA forgetting factor, the
// conventional 1/1000 per subframe.
const pfBeta = 1.0 / 1000

// Allocate implements Scheduler.
func (p *ProportionalFair) Allocate(s *AllocScratch, bw Bandwidth, allowed []int, ues []*SchedUE) {
	s.Reset(bw.Subchannels(), len(ues))
	tbs := &scTBS[bw.bwIndex()]
	for _, sc := range allowed {
		best := -1
		bestMetric := math.Inf(-1)
		for i, u := range ues {
			if u.BacklogBits <= 0 {
				continue
			}
			cqi := 0
			if sc < len(u.SubbandCQI) {
				cqi = u.SubbandCQI[sc]
			}
			if cqi < 0 || cqi > len(tbs)-1 {
				continue
			}
			rate := float64(tbs[cqi][sc])
			if rate == 0 {
				continue
			}
			avg := u.avgRate
			if avg < 1 {
				avg = 1 // new clients get immediate priority
			}
			if m := rate / avg; m > bestMetric {
				bestMetric = m
				best = i
			}
		}
		if best < 0 {
			continue
		}
		bits := serve(bw, sc, ues[best])
		if bits == 0 {
			continue
		}
		s.UEOf[sc] = int32(best)
		s.Served[best] += bits
	}
	// EWMA update for every client, scheduled or not.
	for i, u := range ues {
		u.avgRate = (1-pfBeta)*u.avgRate + pfBeta*float64(s.Served[i])
	}
}
