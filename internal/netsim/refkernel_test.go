package netsim

import (
	"fmt"
	"testing"

	"cellfi/internal/core"
	"cellfi/internal/lte"
	"cellfi/internal/phy"
	"cellfi/internal/propagation"
	"cellfi/internal/topo"
)

// The pre-transmitter-list SINR kernel and the epoch loop that fed it,
// kept as the test-only reference the production kernel must match to
// the bit: dense [][]bool transmit masks scanned over every cell, a
// grid query per evaluation in indexed mode, the noise floor and the
// fade prefix recomputed per call, scalar Fading.GainLinear per link,
// and the (SINR, clean SINR, SINR again) triple per observation. Only
// the budget lookup is adapted — the mW table is client-major now.

func (n *Network) refRxMW(j, c int) float64 { return n.rxMW[c*len(n.Cells)+j] }

func refNoiseRBDBm() float64 { return propagation.NoiseDBm(lte.RBBandwidthHz, 7) }

func (n *Network) refSinrParts(c, k int, b int64, txMask [][]bool, scratch *[]int32) (sig, den float64) {
	cl := n.Clients[c]
	i := cl.Cell
	tMS := n.epoch*1000 + b*100
	sig = n.refRxMW(i, c) * n.fading.GainLinear(propagation.LinkID(i, c), k, tMS)
	den = propagation.DBmToMW(refNoiseRBDBm())
	if n.cellGrid != nil {
		*scratch = n.cellGrid.AppendWithin((*scratch)[:0], cl.Pos, n.sigRadius)
		for _, jj := range *scratch {
			j := int(jj)
			if j == i || !txMask[j][k] {
				continue
			}
			den += n.refRxMW(j, c) * n.fading.GainLinear(propagation.LinkID(j, c), k, tMS)
		}
		return sig, den
	}
	for j := range n.Cells {
		if j == i || !txMask[j][k] {
			continue
		}
		if n.truncate && !n.cellNearPos(j, cl.Pos) {
			continue
		}
		den += n.refRxMW(j, c) * n.fading.GainLinear(propagation.LinkID(j, c), k, tMS)
	}
	return sig, den
}

func (n *Network) refCleanParts(c, k int, b int64) (sig, den float64) {
	cl := n.Clients[c]
	tMS := n.epoch*1000 + b*100
	sig = n.refRxMW(cl.Cell, c) * n.fading.GainLinear(propagation.LinkID(cl.Cell, c), k, tMS)
	return sig, propagation.DBmToMW(refNoiseRBDBm())
}

func (n *Network) refClientSeesInterference(c, k int, b int64, txMask [][]bool, scratch *[]int32) bool {
	withI := phy.LTECQIFromLinearSINR(n.refSinrParts(c, k, b, txMask, scratch))
	clean := phy.LTECQIFromLinearSINR(n.refCleanParts(c, k, b))
	if clean == 0 {
		return false
	}
	return float64(withI) < core.DetectDropFraction*float64(clean)
}

// refNet steps a Network with the old epoch loop: fresh active sets and
// masks every epoch, maps built per cell, Held() re-read from the
// controller. It shares the Network's state (controllers, rng, queues,
// clean streaks) and the production oracle/deconfliction passes, which
// read n.active.
type refNet struct {
	n          *Network
	prevTxMask [][]bool
	prevActive [][]int
	scratch    []int32
}

func (r *refNet) step() {
	n := r.n
	nCells := len(n.Cells)
	s := n.Cfg.BW.Subchannels()
	for _, c := range n.Clients {
		if c.Backlogged && c.QueuedBits < 1<<30 {
			c.QueuedBits = 1 << 40
		}
	}
	active := make([][]int, nCells)
	for j := 0; j < nCells; j++ {
		active[j] = n.appendActive(nil, j)
	}
	n.active = active
	n.markActive(active)

	switch n.Cfg.Scheme {
	case SchemeOracle:
		n.allowed = n.oracleAllocate()
	case SchemeCellFi, SchemeRandomHop:
		r.updateControllers(active)
	case SchemeHybrid:
		r.updateControllers(active)
		n.deconflictProviders()
	}

	txMask := make([][]bool, nCells)
	for j := 0; j < nCells; j++ {
		txMask[j] = make([]bool, s)
		if len(active[j]) == 0 {
			continue
		}
		for _, k := range n.allowed[j] {
			txMask[j][k] = true
		}
	}

	const blocks = blocksPerEpoch
	for j := 0; j < nCells; j++ {
		nAct := float64(len(active[j]))
		for _, c := range active[j] {
			var rate float64
			for _, k := range n.allowed[j] {
				var scRate float64
				for b := int64(0); b < blocks; b++ {
					cqi := phy.LTECQIFromLinearSINR(n.refSinrParts(c, k, b, txMask, &r.scratch))
					scRate += lte.SubchannelRateBps(n.Cfg.BW, n.Cfg.TDD, k, cqi)
				}
				rate += scRate / float64(blocks)
			}
			rate /= nAct
			served := int64(rate)
			cl := n.Clients[c]
			if served > cl.QueuedBits {
				served = cl.QueuedBits
			}
			cl.QueuedBits -= served
			cl.DeliveredBits += served
		}
	}

	r.prevTxMask = txMask
	r.prevActive = active
	n.epoch++
}

func (r *refNet) updateControllers(nowActive [][]int) {
	n := r.n
	prevTxMask, prevActive := r.prevTxMask, r.prevActive
	s := n.Cfg.BW.Subchannels()
	const lastBlock = blocksPerEpoch - 1
	for i, ctl := range n.controllers {
		own := len(nowActive[i])
		sensed := 0
		for j := range n.Cells {
			for _, c := range nowActive[j] {
				if n.truncate && !n.clientNearPos(c, n.Cells[i]) {
					continue
				}
				if n.prachSNR[i][c] >= lte.PRACHDetectFloorDB {
					sensed++
				}
			}
		}
		in := core.EpochInput{
			TargetShare:   core.Share(s, own, sensed),
			BadFrac:       map[int]float64{},
			Utility:       map[int]float64{},
			SensedBusy:    map[int]bool{},
			PackCandidate: map[int]int{},
		}
		if prevTxMask == nil || len(prevActive[i]) == 0 {
			ctl.Epoch(in)
			n.allowed[i] = ctl.Held()
			continue
		}

		nAct := float64(len(prevActive[i]))
		cleanForAll := make([]bool, s)
		for k := 0; k < s; k++ {
			cleanForAll[k] = true
		}
		held := map[int]bool{}
		for _, k := range ctl.Held() {
			held[k] = true
		}
		for k := 0; k < s; k++ {
			anyBad := false
			badFrac := 0.0
			util := 0.0
			for _, c := range prevActive[i] {
				trueBad := n.refClientSeesInterference(c, k, lastBlock, prevTxMask, &r.scratch)
				if n.detect(trueBad) {
					anyBad = true
					badFrac += 1 / nAct
					cleanForAll[k] = false
				}
				cqi := phy.LTECQIFromLinearSINR(n.refSinrParts(c, k, lastBlock, prevTxMask, &r.scratch))
				util += lte.SubchannelRateBps(n.Cfg.BW, n.Cfg.TDD, k, cqi) / nAct
			}
			in.Utility[k] = util
			if held[k] {
				if badFrac > 0 {
					in.BadFrac[k] = badFrac
				}
			} else if anyBad {
				in.SensedBusy[k] = true
			}
		}
		for k := 0; k < s; k++ {
			if cleanForAll[k] {
				n.cleanStreak[i][k]++
			} else {
				n.cleanStreak[i][k] = 0
			}
		}
		for _, k := range ctl.Held() {
			for j := 0; j < k; j++ {
				if !held[j] && !in.SensedBusy[j] && n.cleanStreak[i][j] >= PackStreakEpochs {
					in.PackCandidate[k] = j
					break
				}
			}
		}
		before := ctl.HopCount()
		ctl.Epoch(in)
		n.Hops += ctl.HopCount() - before
		n.allowed[i] = ctl.Held()
	}
}

// maskOf expands per-subchannel transmitter lists into the dense mask
// the reference kernel scans.
func maskOf(tx [][]int32, nCells int) [][]bool {
	mask := make([][]bool, nCells)
	for j := range mask {
		mask[j] = make([]bool, len(tx))
	}
	for k, cells := range tx {
		for _, j := range cells {
			mask[j][k] = true
		}
	}
	return mask
}

// TestKernelMatchesReference pins the transmitter-list kernel to the old
// one: over 20 seeds x every scheme x {all-pairs, truncated, indexed},
// every (sig, den) the kernel can produce for the epoch just stepped —
// sinrBlocks' ten blocks and sinrParts at each of them — equals the
// reference's to the bit, and whole runs end with identical
// per-client throughputs and hop counts.
func TestKernelMatchesReference(t *testing.T) {
	const epochs = 6
	schemes := []Scheme{SchemeCellFi, SchemeRandomHop, SchemeHybrid, SchemeOracle, SchemeLTE}
	modes := []struct {
		name    string
		radius  float64
		indexed bool
	}{{"all-pairs", 0, false}, {"truncated", 800, false}, {"indexed", 800, true}}
	for seed := int64(1); seed <= 20; seed++ {
		tp := topo.Generate(topo.Paper(8, 4), seed)
		for _, scheme := range schemes {
			for _, mode := range modes {
				build := func() *Network {
					cfg := DefaultConfig(scheme, seed)
					cfg.InterferenceRadiusM = mode.radius
					cfg.UseSpatialIndex = mode.indexed
					n := New(tp, cfg)
					n.Backlog()
					return n
				}
				ref := refNet{n: build()}
				for e := 0; e < epochs; e++ {
					ref.step()
				}
				want := ref.n.ThroughputsMbps()

				name := fmt.Sprintf("seed %d %v %s", seed, scheme, mode.name)
				n := build()
				var scratch []int32
				for e := 0; e < epochs; e++ {
					n.Step()
					// n.prevTx is the epoch just served; the epoch
					// counter has advanced, as it has when the next
					// update takes its observations.
					mask := maskOf(n.prevTx, len(n.Cells))
					for c := range n.Clients {
						for k := range n.prevTx {
							bsig, bden := n.sinrBlocks(c, k, n.prevTx)
							for b := int64(0); b < blocksPerEpoch; b++ {
								rsig, rden := n.refSinrParts(c, k, b, mask, &scratch)
								if bsig[b] != rsig || bden[b] != rden {
									t.Fatalf("%s epoch %d client %d k %d block %d: sinrBlocks (sig, den) = (%v, %v), reference (%v, %v)",
										name, e, c, k, b, bsig[b], bden[b], rsig, rden)
								}
								if sig, den := n.sinrParts(c, k, b, n.prevTx); sig != rsig || den != rden {
									t.Fatalf("%s epoch %d client %d k %d block %d: sinrParts (sig, den) = (%v, %v), reference (%v, %v)",
										name, e, c, k, b, sig, den, rsig, rden)
								}
							}
						}
					}
				}
				got := n.ThroughputsMbps()
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("%s: client %d throughput %v, reference %v", name, c, got[c], want[c])
					}
				}
				if n.Hops != ref.n.Hops {
					t.Fatalf("%s: hops %d, reference %d", name, n.Hops, ref.n.Hops)
				}
			}
		}
	}
}
