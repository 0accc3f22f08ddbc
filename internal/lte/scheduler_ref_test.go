package lte

import (
	"math"
	"math/rand"
	"testing"
)

// Reference schedulers: the pre-scratch map-based implementations,
// kept verbatim as a behavioural oracle. The slice-backed production
// schedulers must reproduce their output bit-for-bit — same per-UE
// served bytes, same subchannel assignment, same EWMA state — across
// arbitrary UE populations, backlogs and CQI mixes.

type refAllocation map[int]int

func refBacklogged(ues []*SchedUE) []*SchedUE {
	out := ues[:0:0]
	for _, u := range ues {
		if u.BacklogBits > 0 {
			out = append(out, u)
		}
	}
	return out
}

type refRoundRobin struct{ next int }

func (r *refRoundRobin) allocate(bw Bandwidth, allowed []int, ues []*SchedUE) (refAllocation, map[int]int64) {
	alloc := make(refAllocation)
	served := make(map[int]int64)
	for _, sc := range allowed {
		cands := refBacklogged(ues)
		if len(cands) == 0 {
			break
		}
		u := cands[r.next%len(cands)]
		r.next++
		bits := serve(bw, sc, u)
		if bits == 0 {
			continue
		}
		alloc[sc] = u.ID
		served[u.ID] += bits
	}
	return alloc, served
}

type refProportionalFair struct{}

func (p *refProportionalFair) allocate(bw Bandwidth, allowed []int, ues []*SchedUE) (refAllocation, map[int]int64) {
	const beta = 1.0 / 1000
	alloc := make(refAllocation)
	served := make(map[int]int64)
	for _, sc := range allowed {
		var best *SchedUE
		bestMetric := math.Inf(-1)
		for _, u := range ues {
			if u.BacklogBits <= 0 {
				continue
			}
			cqi := 0
			if sc < len(u.SubbandCQI) {
				cqi = u.SubbandCQI[sc]
			}
			rate := float64(TransportBlockBits(cqi, bw.SubchannelRBs(sc)))
			if rate == 0 {
				continue
			}
			avg := u.avgRate
			if avg < 1 {
				avg = 1
			}
			if m := rate / avg; m > bestMetric {
				bestMetric = m
				best = u
			}
		}
		if best == nil {
			continue
		}
		bits := serve(bw, sc, best)
		if bits == 0 {
			continue
		}
		alloc[sc] = best.ID
		served[best.ID] += bits
	}
	for _, u := range ues {
		u.avgRate = (1-beta)*u.avgRate + beta*float64(served[u.ID])
	}
	return alloc, served
}

// cloneUEs deep-copies a UE population so the reference and production
// schedulers each mutate their own state.
func cloneUEs(ues []*SchedUE) []*SchedUE {
	out := make([]*SchedUE, len(ues))
	for i, u := range ues {
		cqi := make([]int, len(u.SubbandCQI))
		copy(cqi, u.SubbandCQI)
		out[i] = &SchedUE{ID: u.ID, BacklogBits: u.BacklogBits, SubbandCQI: cqi, avgRate: u.avgRate}
	}
	return out
}

// TestSchedulerEquivalenceWithMapReference drives both scheduler
// implementations through 50 seeded scenarios x several subframes and
// demands identical output at every step: allocation, served bits,
// remaining backlog and (for PF) the exact EWMA floats.
func TestSchedulerEquivalenceWithMapReference(t *testing.T) {
	bws := []Bandwidth{BW5MHz, BW10MHz, BW15MHz, BW20MHz}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bw := bws[rng.Intn(len(bws))]
		n := bw.Subchannels()
		nUE := 1 + rng.Intn(10)
		mk := func() []*SchedUE {
			r := rand.New(rand.NewSource(seed + 1000))
			ues := make([]*SchedUE, nUE)
			for i := range ues {
				cqi := make([]int, n)
				for k := range cqi {
					cqi[k] = r.Intn(16) // 0..15, including undecodable
				}
				var backlog int64
				switch r.Intn(3) {
				case 0:
					backlog = 0 // idle
				case 1:
					backlog = int64(r.Intn(5000)) // drains mid-run
				default:
					backlog = 1 << 30 // saturated
				}
				ues[i] = &SchedUE{ID: i*7 + 3, BacklogBits: backlog, SubbandCQI: cqi}
			}
			return ues
		}
		// A random allowed subset, sometimes the full carrier.
		var allowed []int
		if rng.Intn(3) == 0 {
			allowed = allSubchannels(bw)
		} else {
			for sc := 0; sc < n; sc++ {
				if rng.Intn(2) == 0 {
					allowed = append(allowed, sc)
				}
			}
		}

		check := func(name string, newSched Scheduler, refAlloc func(Bandwidth, []int, []*SchedUE) (refAllocation, map[int]int64)) {
			refUEs, newUEs := mk(), mk()
			var scratch AllocScratch
			for sf := 0; sf < 8; sf++ {
				wantAlloc, wantServed := refAlloc(bw, allowed, refUEs)
				newSched.Allocate(&scratch, bw, allowed, newUEs)
				gotAlloc := allocMap(&scratch, newUEs)
				gotServed := servedMap(&scratch, newUEs)
				if len(gotAlloc) != len(wantAlloc) {
					t.Fatalf("seed %d %s sf %d: %d grants, reference %d", seed, name, sf, len(gotAlloc), len(wantAlloc))
				}
				for sc, id := range wantAlloc {
					if gotAlloc[sc] != id {
						t.Fatalf("seed %d %s sf %d: subchannel %d -> UE %d, reference UE %d",
							seed, name, sf, sc, gotAlloc[sc], id)
					}
				}
				if len(gotServed) != len(wantServed) {
					t.Fatalf("seed %d %s sf %d: served map size %d, reference %d", seed, name, sf, len(gotServed), len(wantServed))
				}
				for id, bits := range wantServed {
					if gotServed[id] != bits {
						t.Fatalf("seed %d %s sf %d: UE %d served %d bits, reference %d",
							seed, name, sf, id, gotServed[id], bits)
					}
				}
				for i := range refUEs {
					if refUEs[i].BacklogBits != newUEs[i].BacklogBits {
						t.Fatalf("seed %d %s sf %d: UE %d backlog %d, reference %d",
							seed, name, sf, newUEs[i].ID, newUEs[i].BacklogBits, refUEs[i].BacklogBits)
					}
					if refUEs[i].avgRate != newUEs[i].avgRate {
						t.Fatalf("seed %d %s sf %d: UE %d avgRate %v, reference %v (EWMA drift)",
							seed, name, sf, newUEs[i].ID, newUEs[i].avgRate, refUEs[i].avgRate)
					}
				}
			}
		}
		check("round-robin", &RoundRobin{}, (&refRoundRobin{}).allocate)
		check("proportional-fair", &ProportionalFair{}, (&refProportionalFair{}).allocate)
	}
}
