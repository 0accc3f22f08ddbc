package lte

import (
	"math/rand"
	"time"

	"cellfi/internal/sim"
	"cellfi/internal/trace"
)

// CellSim is a subframe-granularity simulation of one LTE cell: every
// millisecond the TDD pattern decides the subframe kind, downlink
// subframes run the MAC scheduler over the subchannels the
// interference-management layer allows, transport blocks succeed or
// fail against the instantaneous per-subchannel SINR (driving HARQ
// retransmissions), and clients feed back aperiodic mode 3-0 CQI
// reports every 2 ms. This is the fine-grained counterpart to the
// fluid model in internal/netsim, used for link-level experiments and
// the scheduler ablation.
//
// The per-subframe path is allocation-free in steady state: the cell
// owns one AllocScratch, one DCI slice, one marshal buffer and one
// SINR scratch, all reused every TTI, and HARQ state lives in dense
// per-subchannel slots rather than maps. All per-subframe iteration is
// in ascending subchannel order, so behaviour is deterministic by
// construction.
type CellSim struct {
	Cell *Cell
	Env  *Environment
	// Interferers seen by this cell's clients.
	Interferers []*Cell
	// Sched is the MAC policy (ProportionalFair by default).
	Sched Scheduler
	// Allowed restricts schedulable subchannels; nil means all.
	Allowed []int
	// ReportEvery is the CQI cadence (default CQIReportPeriod).
	ReportEvery time.Duration

	eng      *sim.Engine
	rng      *rand.Rand
	ues      []*simUE
	subframe int64

	// Reused per-subframe working storage.
	scratch    AllocScratch
	scheds     []*SchedUE
	allAllowed []int
	busy       []bool
	free       []int
	dcis       []DCI
	dciBuf     []byte
	sinrs      []float64 // signal mW per subchannel (report cycle)
	dens       []float64 // interference+noise mW per subchannel
}

// simUE couples a radio client with its MAC state.
type simUE struct {
	client   *Client
	sched    *SchedUE
	reporter *CQIReporter
	// harq holds the in-flight process per subchannel, indexed by
	// subchannel (LTE runs 8+ parallel processes; one per subchannel
	// is an adequate model at this granularity). Slots are reused in
	// place; active marks the in-flight ones.
	harq []harqSlot
	// delivered accumulates acknowledged bits.
	delivered int64
	// blocks/failures count first transmissions and their failures.
	blocks, failures int64
}

// harqSlot binds an in-flight HARQ process to the exact number of
// queue bits its transport block carries, so delivery and drop
// accounting conserve bits precisely.
type harqSlot struct {
	p      HARQProcess
	bits   int64
	active bool
}

// NewCellSim builds a simulation of cell serving the given clients on
// the engine. CQI measurement noise follows the Figure 8 experiment
// (5%).
func NewCellSim(eng *sim.Engine, env *Environment, cell *Cell, clients []*Client) *CellSim {
	n := cell.BW.Subchannels()
	cs := &CellSim{
		Cell:        cell,
		Env:         env,
		Sched:       &ProportionalFair{},
		ReportEvery: CQIReportPeriod,
		eng:         eng,
		rng:         eng.NewStream("cellsim"),
		allAllowed:  make([]int, n),
		busy:        make([]bool, n),
		free:        make([]int, 0, n),
		sinrs:       make([]float64, n),
		dens:        make([]float64, n),
	}
	for i := range cs.allAllowed {
		cs.allAllowed[i] = i
	}
	for _, cl := range clients {
		cs.ues = append(cs.ues, &simUE{
			client: cl,
			sched: &SchedUE{
				ID:         cl.ID,
				SubbandCQI: make([]int, n),
			},
			reporter: NewCQIReporter(0.05, eng.NewStream("cqi")),
			harq:     make([]harqSlot, n),
		})
	}
	cs.scheds = make([]*SchedUE, len(cs.ues))
	for i, ue := range cs.ues {
		cs.scheds[i] = ue.sched
	}
	return cs
}

// Start arms the per-subframe and CQI-report machinery.
func (cs *CellSim) Start() {
	cs.eng.EveryAt(0, SubframeDuration, cs.tick)
	cs.eng.EveryAt(cs.ReportEvery, cs.ReportEvery, cs.report)
}

// Backlog fills a client's downlink queue.
func (cs *CellSim) Backlog(clientID int, bits int64) {
	for _, ue := range cs.ues {
		if ue.client.ID == clientID {
			ue.sched.BacklogBits += bits
			return
		}
	}
	panic("lte: unknown client in Backlog")
}

// DeliveredBits returns a client's acknowledged downlink bits.
func (cs *CellSim) DeliveredBits(clientID int) int64 {
	for _, ue := range cs.ues {
		if ue.client.ID == clientID {
			return ue.delivered
		}
	}
	return 0
}

// FirstTxBLER returns the measured first-transmission block error rate
// across all clients — the quantity HARQ hides from upper layers.
func (cs *CellSim) FirstTxBLER() float64 {
	var blocks, fails int64
	for _, ue := range cs.ues {
		blocks += ue.blocks
		fails += ue.failures
	}
	if blocks == 0 {
		return 0
	}
	return float64(fails) / float64(blocks)
}

// report runs one aperiodic CQI cycle for every client.
func (cs *CellSim) report() {
	tMS := int64(cs.eng.Now() / time.Millisecond)
	s := cs.Cell.BW.Subchannels()
	rec := cs.eng.Recorder()
	sigs, dens := cs.sinrs[:s], cs.dens[:s]
	for _, ue := range cs.ues {
		// Linear-domain measurement: per-subchannel (signal, denominator)
		// pairs feed the reporter's linear thresholds — same CQIs as the
		// dB chain without its log10 per subchannel per UE.
		for k := 0; k < s; k++ {
			sigs[k], dens[k] = cs.Env.DownlinkSINRParts(cs.Cell, cs.Interferers, ue.client, k, tMS)
		}
		rep := ue.reporter.ReportLinearInto(sigs, dens, ue.sched.SubbandCQI)
		if rec != nil {
			rec.Record(trace.Record{T: int64(cs.eng.Now()), AP: int32(cs.Cell.ID), Kind: trace.KindLTECQI,
				N: 2, Args: [trace.MaxArgs]int64{int64(ue.client.ID), int64(rep.Wideband)}})
		}
	}
}

// tick advances one subframe.
func (cs *CellSim) tick() {
	sf := cs.subframe
	cs.subframe++
	if cs.Cell.TDD.Kind(sf) != Downlink {
		return
	}
	allowed := cs.Allowed
	if allowed == nil {
		allowed = cs.allAllowed
	}
	// HARQ retransmissions take priority: a subchannel with an open
	// process retries there before new data is scheduled.
	tMS := int64(cs.eng.Now() / time.Millisecond)
	n := cs.Cell.BW.Subchannels()
	busy := cs.busy[:n]
	for i := range busy {
		busy[i] = false
	}
	for _, ue := range cs.ues {
		for k := range ue.harq {
			e := &ue.harq[k]
			if !e.active {
				continue
			}
			busy[k] = true
			sinr := cs.Env.DownlinkSINR(cs.Cell, cs.Interferers, ue.client, k, tMS)
			if e.p.Transmit(sinr, cs.rng) {
				ue.delivered += e.bits
				e.active = false
			} else if e.p.Done() {
				// Dropped after max attempts: the bits return to
				// the queue (RLC retransmission).
				ue.sched.BacklogBits += e.bits
				e.active = false
			}
		}
	}
	free := cs.free[:0]
	for _, k := range allowed {
		if !busy[k] {
			free = append(free, k)
		}
	}
	cs.free = free
	// New transmissions via the MAC scheduler. The scheduler drains
	// the queues; we split each UE's served total across its granted
	// subchannels so HARQ bookkeeping conserves bits exactly.
	cs.Sched.Allocate(&cs.scratch, cs.Cell.BW, free, cs.scheds)
	// The allocation reaches clients as PDCCH grants: encode each DCI
	// and decode it on the "client side" — the control channel is a
	// real codec path, not a shared pointer.
	cs.dcis = AppendGrants(cs.dcis[:0], cs.Cell.BW, &cs.scratch, cs.scheds)
	rec := cs.eng.Recorder()
	for _, g := range cs.dcis {
		raw, err := g.MarshalAppend(cs.dciBuf[:0], cs.Cell.BW)
		if err != nil {
			panic("lte: scheduler emitted an unencodable grant: " + err.Error())
		}
		cs.dciBuf = raw
		decoded, err := UnmarshalDCI(raw, cs.Cell.BW)
		if err != nil {
			panic("lte: control channel corrupted a grant: " + err.Error())
		}
		id := int(decoded.RNTI)
		ue, ui := cs.byID(id)
		remaining := cs.scratch.Served[ui]
		grantBits := remaining
		grantMask := int64(decoded.RBGMask)
		if rec != nil {
			rec.Record(trace.Record{T: int64(cs.eng.Now()), AP: int32(cs.Cell.ID), Kind: trace.KindLTEGrant,
				N: 3, Args: [trace.MaxArgs]int64{int64(id), grantMask, grantBits}})
		}
		for k := 0; k < n; k++ {
			if decoded.RBGMask&(1<<uint(k)) == 0 {
				continue
			}
			cqi := ue.sched.SubbandCQI[k]
			if cqi <= 0 {
				continue
			}
			nominal := int64(TransportBlockBits(cqi, cs.Cell.BW.SubchannelRBs(k)))
			bits := nominal
			if bits > remaining {
				bits = remaining
			}
			remaining -= bits
			if bits == 0 {
				continue
			}
			slot := &ue.harq[k]
			slot.p = HARQProcess{CQI: cqi}
			sinr := cs.Env.DownlinkSINR(cs.Cell, cs.Interferers, ue.client, k, tMS)
			ue.blocks++
			if slot.p.Transmit(sinr, cs.rng) {
				ue.delivered += bits
			} else {
				ue.failures++
				if slot.p.Done() {
					ue.sched.BacklogBits += bits
				} else {
					slot.bits = bits
					slot.active = true
				}
			}
		}
	}
}

// byID resolves a scheduled client ID to its simUE and scheds index.
func (cs *CellSim) byID(id int) (*simUE, int) {
	for i, ue := range cs.ues {
		if ue.client.ID == id {
			return ue, i
		}
	}
	panic("lte: scheduler allocated to unknown UE")
}
