package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"cellfi/internal/netsim"
	"cellfi/internal/topo"
)

const (
	imAPs          = 200  // 14x the paper's densest deployment
	imClientsPerAP = 10   //
	imAreaSideM    = 6000 // keeps the paper's AP density at 200 APs
	imBlockSteps   = 20
	imWarmSteps    = 10
	imVerifySteps  = 5
)

// imTopology generates the dense deployment for n APs at the density
// of 200 APs on a 6 km square.
func imTopology(n int, seed int64) *topo.Topology {
	p := topo.Paper(n, imClientsPerAP)
	p.AreaSide = imAreaSideM * math.Sqrt(float64(n)/imAPs)
	return topo.Generate(p, seed)
}

func imNetwork(n int, seed int64, indexed bool) *netsim.Network {
	cfg := netsim.DefaultConfig(netsim.SchemeCellFi, seed)
	if indexed {
		cfg.InterferenceRadiusM = 800
		cfg.UseSpatialIndex = true
	}
	nw := netsim.New(imTopology(n, seed), cfg)
	nw.Backlog()
	return nw
}

// imInst is the im_dense workload: the paper's interference-management
// protocol at 200 APs x 10 backlogged clients. One op is one Step()
// (a 1 s IM epoch); one block is imBlockSteps of them.
type imInst struct {
	e  *env
	n  int
	nw *netsim.Network
}

func setupIMDense(e *env) (instance, error) {
	n := e.scaled(imAPs, 4)
	return &imInst{e: e, n: n, nw: imNetwork(n, e.seed, false)}, nil
}

func (in *imInst) warm() {
	for i := 0; i < imWarmSteps; i++ {
		in.nw.Step()
	}
}

func (in *imInst) block(run int32, lat []int64) []int64 {
	sb := in.e.tr.buf()
	blk := sb.open()
	b0 := time.Now()
	for i := 0; i < imBlockSteps; i++ {
		t0 := time.Now()
		in.nw.Step()
		t1 := time.Now()
		lat = append(lat, t1.Sub(t0).Nanoseconds())
		sb.add("netsim.Step", blk, run, t0, t1)
	}
	sb.close(blk, "bench.block", 0, run, b0, time.Now())
	return lat
}

// imDigest hashes the float bits of a throughput vector.
func imDigest(mbps []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range mbps {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func (in *imInst) verify() verdict {
	var v verdict
	var served float64
	for _, mbps := range in.nw.ThroughputsMbps() {
		served += mbps
	}
	v.check(served > 0, "no client was served")

	// Two fresh worlds from the same seed must agree to the bit; their
	// state after a fixed step count is the workload's sim_digest.
	var digests [2]string
	for i := range digests {
		nw := imNetwork(in.n, in.e.seed, false)
		for s := 0; s < imVerifySteps; s++ {
			nw.Step()
		}
		digests[i] = imDigest(nw.ThroughputsMbps())
		nw.Close()
	}
	v.check(digests[0] == digests[1], "fresh worlds diverge: %s vs %s", digests[0], digests[1])
	v.digest = digests[0]
	return v
}

// imStepMS builds a world of n APs and returns the fastest of nine
// steps after a short warm-up (the quiet estimate, as for the workload).
func imStepMS(n int, seed int64, indexed bool) float64 {
	nw := imNetwork(n, seed, indexed)
	defer nw.Close()
	for i := 0; i < 3; i++ {
		nw.Step()
	}
	best := math.Inf(1)
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		nw.Step()
		best = math.Min(best, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return best
}

func (in *imInst) layers(r *runResult) map[string]float64 {
	m := map[string]float64{"netsim.new_s": r.builds[0]}
	half, quarter := in.n/2, in.n/4
	if quarter < 2 {
		quarter, half = 2, 3
	}
	full := r.quiet.p50
	msHalf, msQuarter := imStepMS(half, in.e.seed, false), imStepMS(quarter, in.e.seed, false)
	m["netsim.step_ms_n100"] = msHalf
	m["netsim.step_ms_n50"] = msQuarter
	// Log-log slope of step time over AP count; 2.0 is all-pairs.
	slope, _ := linearFit(
		[]float64{math.Log(float64(quarter)), math.Log(float64(half)), math.Log(float64(in.n))},
		[]float64{math.Log(msQuarter), math.Log(msHalf), math.Log(full)})
	m["netsim.scaling_exp"] = slope
	m["netsim.step_indexed_ms"] = imStepMS(in.n, in.e.seed, true)

	cs := in.nw.LinkCacheStats()
	if tot := cs.Hits + cs.Misses; tot > 0 {
		m["propagation.linkcache_hit_ratio"] = float64(cs.Hits) / float64(tot)
	}
	mergeInto(m, kernelsCore(in.e), kernelsPropagation(in.e), kernelsPhy(in.e))
	return m
}

func (in *imInst) close() { in.nw.Close() }
