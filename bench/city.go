package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"cellfi/internal/metro"
	"cellfi/internal/shard"
)

const (
	cityWarmSteps   = 10
	cityDigestEvery = 97 // UEState of every 97th UE enters the digest
)

// cityConfig is metro.DefaultCity shrunk by scale at constant density.
func cityConfig(seed int64, scale float64, shards int) metro.Config {
	cfg := metro.DefaultCity(seed)
	if scale < 1 {
		lin := math.Sqrt(scale)
		cfg.NAPs = max(8, int(float64(cfg.NAPs)*scale))
		cfg.NUEs = max(200, int(float64(cfg.NUEs)*scale))
		cfg.AreaW *= lin
		cfg.AreaH *= lin
	}
	cfg.Shards = shards
	return cfg
}

// cityShards is the shard count of city_sharded: one per core the
// bench may use, capped at 4, and at least 2 so the cluster path runs.
func cityShards(procs int) int {
	return max(2, min(procs, 4))
}

// cityInst is the city_diurnal / city_sharded workload: the metro
// world at its default city size. One op is one Step() (a 1 s epoch);
// one block is one full diurnal cycle, so every block carries the same
// mix of trough and peak load however many blocks a run fits.
type cityInst struct {
	e      *env
	cfg    metro.Config
	w      *metro.World
	digest string
	// shard counters around the first timed cycle (sharded, traced).
	st0, st1 shard.Stats
	// attached[i] and stepMS[i] pair every timed step's load with its
	// cost (traced runs only).
	attached, stepMS []float64
}

func setupCity(e *env, sharded bool) (instance, error) {
	shards := 1
	if sharded {
		shards = cityShards(e.procs)
	}
	cfg := cityConfig(e.seed, e.scale, shards)
	return &cityInst{e: e, cfg: cfg, w: metro.New(cfg)}, nil
}

func (in *cityInst) warm() {
	for i := 0; i < cityWarmSteps; i++ {
		in.w.Step()
	}
}

func (in *cityInst) block(run int32, lat []int64) []int64 {
	traced := in.e.tr != nil
	sb := in.e.tr.buf()
	blk := sb.open()
	if traced && run == 1 {
		in.st0, _ = in.w.ShardStats()
	}
	b0 := time.Now()
	for i := 0; i < in.cfg.DayEpochs; i++ {
		t0 := time.Now()
		in.w.Step()
		t1 := time.Now()
		lat = append(lat, t1.Sub(t0).Nanoseconds())
		if traced {
			sb.add("metro.Step", blk, run, t0, t1)
			in.attached = append(in.attached, float64(in.w.AttachedCount()))
			in.stepMS = append(in.stepMS, float64(t1.Sub(t0).Nanoseconds())/1e6)
		}
	}
	sb.close(blk, "bench.block", 0, run, b0, time.Now())
	if traced && run == 1 {
		in.st1, _ = in.w.ShardStats()
	}
	if in.digest == "" {
		// After its first cycle the world is at a fixed epoch whatever
		// the time budget, so this state is the workload's sim_digest.
		in.digest = cityDigest(in.w, in.cfg.NUEs)
	}
	return lat
}

// cityDigest hashes the integer world state the any-K determinism
// contract covers.
func cityDigest(w *metro.World, nUEs int) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(w.Epoch()))
	put(uint64(w.AttachedCount()))
	put(uint64(w.DeliveredBits()))
	for u := 0; u < nUEs; u += cityDigestEvery {
		x, y, cell, delivered, cqi := w.UEState(u)
		put(math.Float64bits(x))
		put(math.Float64bits(y))
		put(uint64(cell))
		put(uint64(delivered))
		put(uint64(cqi))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func (in *cityInst) verify() verdict {
	v := verdict{digest: in.digest}
	v.check(in.w.DeliveredBits() > 0, "no bits delivered")
	att, n := float64(in.w.AttachedCount()), float64(in.cfg.NUEs)
	v.check(att >= 0.9*in.cfg.MinLoadFrac*n && att <= n,
		"attached %v outside the diurnal band of %v UEs", att, n)

	// The any-K determinism contract, checked standalone on a world
	// small enough to build twice: the direct path and the cluster path
	// must reach the same state. (A full set also compares the
	// full-size city_diurnal and city_sharded digests.)
	var small [2]string
	for i, k := range []int{1, cityShards(in.e.procs)} {
		cfg := cityConfig(in.e.seed, math.Min(in.e.scale, 0.02), k)
		w := metro.New(cfg)
		w.Run(40)
		small[i] = cityDigest(w, cfg.NUEs)
		w.Close()
	}
	v.check(small[0] == small[1], "small world: direct digest %s, sharded digest %s", small[0], small[1])
	return v
}

func (in *cityInst) layers(r *runResult) map[string]float64 {
	m := map[string]float64{"metro.new_s": r.builds[0]}
	// Step time against attached UEs: the slope is the per-UE sweep
	// cost, the intercept the fixed attach/mobility/fold cost.
	slope, icpt := linearFit(in.attached, in.stepMS)
	m["metro.ns_per_attached_ue"] = slope * 1e6
	m["metro.step_fixed_ms"] = icpt
	// Trough and peak: median step time of the least and most loaded
	// tenth of the steps.
	idx := make([]int, len(in.attached))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return in.attached[idx[a]] < in.attached[idx[b]] })
	tenth := max(1, len(idx)/10)
	pick := func(ix []int) float64 {
		ms := make([]float64, len(ix))
		for i, j := range ix {
			ms[i] = in.stepMS[j]
		}
		return median(ms)
	}
	m["metro.step_ms_trough"] = pick(idx[:tenth])
	m["metro.step_ms_peak"] = pick(idx[len(idx)-tenth:])
	m["metro.allocs_per_step"] = float64(r.allocN) / float64(r.ops())

	k := mergeInto(map[string]float64{}, kernelsPropagation(in.e), kernelsPhy(in.e), kernelsGeo(in.e, in.cfg), kernelsStats(in.e))
	mergeInto(m, k)
	// est: the sweep's share of a step if it cost exactly one 32-link
	// fade row plus one CQI lookup per attached UE.
	if p50 := r.quiet.p50; p50 > 0 {
		perUE := float64(in.cfg.MaxNeighbors)*k["propagation.fade_batch_ns_per_link"] + k["phy.cqi_linear_ns"]
		m["metro.sweep_est_share"] = perUE * median(in.attached) / (p50 * 1e6)
	}

	if st, ok := in.w.ShardStats(); ok {
		// Exact counts of one diurnal cycle (the first timed one).
		m["shard.windows"] = float64(in.st1.Windows - in.st0.Windows)
		m["shard.msgs"] = float64(in.st1.Msgs - in.st0.Msgs)
		m["shard.barrier_stall_ms"] = st.BarrierStallMS()
		lo := 1.0
		for _, u := range st.Utilization() {
			lo = math.Min(lo, u)
		}
		m["shard.utilization_min"] = lo
		m["shard.window_barrier_ns"] = kernelShardBarrier(in.e, in.cfg.Shards)
		// Speedup over the direct path, measured here on one cycle of
		// a K=1 world so a traced city_sharded run stands alone; one raw
		// cycle against the median raw cycle, not the quiet estimate.
		cfg := in.cfg
		cfg.Shards = 1
		w := metro.New(cfg)
		w.Run(cityWarmSteps)
		t0 := time.Now()
		w.Run(cfg.DayEpochs)
		direct := time.Since(t0).Seconds()
		w.Close()
		m["shard.speedup_x"] = direct / medianWallS(r.blocks)
	}
	return m
}

func (in *cityInst) close() { in.w.Close() }
