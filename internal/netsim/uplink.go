package netsim

import (
	"math"

	"cellfi/internal/lte"
	"cellfi/internal/phy"
	"cellfi/internal/propagation"
)

// Uplink management. Section 5 notes that "the uplink is much less
// saturated; yet, the uplink can be managed similarly". CellFi runs
// TDD on a single channel, so the subchannel reservations the
// downlink controller converges to govern uplink subframes too: a
// cell grants PUSCH only inside its held set, and uplink interference
// at an access point comes from *clients* of other cells transmitting
// in the same subchannel.
//
// UplinkThroughputs runs the normal (downlink-driven) epoch loop so
// the controllers converge exactly as usual, and alongside it
// evaluates a saturated-uplink fluid model over the same reservations.

// ulRxRB returns the per-RB power AP i receives from client c when the
// client concentrates its power in `rbs` resource blocks.
func (n *Network) ulRxRB(i, c, rbs int) float64 {
	// Recover the symmetric link loss from the downlink budget — the
	// round trip through rxDBm, not lossDB itself, keeps the uplink
	// figures bit-identical to those the per-pair dB table gave.
	loss := n.perRBDBm + 6 - n.rxDBm(i, c)
	perRBUp := clientPowerDBm - 10*math.Log10(float64(rbs))
	return perRBUp + 6 - loss
}

// UplinkThroughputs runs the backlogged scenario for the given number
// of epochs and returns per-client *uplink* throughput in Mbps, using
// the reservations the (downlink) interference management converges
// to. Each active client transmits across its cell's held subchannels
// in its time share; interference at an AP in subchannel k is the
// epoch's scheduled client of every other cell active in k.
func (n *Network) UplinkThroughputs(epochs int) []float64 {
	n.Backlog()
	delivered := make([]float64, len(n.Clients))
	rep := make([]int, len(n.Cells))
	active := make([][]int, len(n.Cells))

	for e := 0; e < epochs; e++ {
		n.Step() // drive the controllers and downlink exactly as usual

		// Active sets and this epoch's representative uplink client
		// per cell (the scheduler rotates; we rotate per epoch).
		for j := range n.Cells {
			active[j] = n.appendActive(active[j][:0], j)
			if len(active[j]) > 0 {
				rep[j] = active[j][e%len(active[j])]
			} else {
				rep[j] = -1
			}
		}

		for i := range n.Cells {
			if len(active[i]) == 0 {
				continue
			}
			nAct := float64(len(active[i]))
			for _, c := range active[i] {
				var rate float64
				for _, k := range n.allowed[i] {
					// The client concentrates power in this grant
					// (one subchannel's RBs at a time).
					rbs := n.Cfg.BW.SubchannelRBs(k)
					sig := n.ulRxRB(i, c, rbs)
					den := n.noiseMW
					// n.prevTx is the epoch just stepped: the cells
					// that held k with a client to schedule, ascending.
					for _, jj := range n.prevTx[k] {
						j := int(jj)
						if j == i || rep[j] < 0 {
							continue
						}
						// Same truncation predicate as the downlink
						// scans (and it keeps stale budget entries of
						// far-away moved clients unreachable here too).
						if n.truncate && !n.clientNearPos(rep[j], n.Cells[i]) {
							continue
						}
						den += propagation.DBmToMW(n.ulRxRB(i, rep[j], rbs))
					}
					sinr := sig - propagation.MWToDBm(den)
					cqi := phy.LTECQIFromSINR(sinr)
					bits := float64(lte.TransportBlockBits(cqi, rbs))
					rate += bits / lte.SubframeDuration.Seconds() * tdd.UplinkFraction()
				}
				delivered[c] += rate / nAct // 1-second epoch, shared airtime
			}
		}
	}
	out := make([]float64, len(n.Clients))
	for c := range out {
		out[c] = delivered[c] / float64(epochs) / 1e6
	}
	return out
}
