// Package metro simulates one city-scale CellFi deployment — thousands
// of access points and 100k+ UEs in a single world — fast enough to
// outrun the wall clock, on every core without giving up determinism.
//
// The epoch simulator in internal/netsim keeps per-object structs and
// dense [cells][clients] budget matrices; at 2,000 APs x 100k UEs that
// matrix alone is gigabytes and every epoch walks it. This package
// restructures the same physics for scale:
//
//   - Per-UE state lives in dense SoA arrays (positions, serving-AP
//     index, queue/delivered counters, last CQI), so the per-epoch
//     sweep is cache-linear instead of pointer-chasing.
//   - Each UE carries a bounded-degree adjacency row (fixed stride,
//     CSR-style nbrAP/nbrRxMW slabs) holding only the APs inside the
//     interference-significance radius, found through the geo.Grid
//     spatial index; mean rx powers are precomputed in float32
//     milliwatts. The sweep makes one fused pass per row
//     (propagation.FadeRow.WeightedSum): link IDs are formed in
//     registers from the AP index and the UE's node ID — no link-ID
//     slab — each fade comes from the ziggurat sampler and Σ rx·gain
//     accumulates without the gains touching memory; the CQI quantizes
//     straight from the linear ratio (phy.LTECQIFromLinearSINR).
//   - Whole-run metrics go to bounded-memory streaming aggregates
//     (integer moments, stats.QuantileSketch) instead of retained
//     samples. A backlogged UE's served bits are a pure function of
//     (serving-AP load, CQI), so the sweep counts UEs per pair in a
//     per-shard tally and folds each non-empty pair once at the end of
//     the phase; only a UE whose queue runs dry, or one out of
//     coverage, is recorded sample by sample.
//
// The transcendental math left in an epoch: rebuildRow's link budgets
// for the UEs that moved (distance, log10, shadowing, exp per link);
// inside the sweep, the ziggurat's tail log and the exp of the few wedge
// tests its squeeze cannot decide (under 0.1% of draws together), and
// one log per distinct (load, CQI) pair in the tally fold.
//
// # Sharded execution
//
// With Config.Shards > 1 the city is cut into vertical slabs of equal
// width and driven by an internal/shard cluster: each slab owns the UEs
// inside it and runs its epoch phases from its own goroutine, in
// conservative 250 ms windows. One 1-second epoch is four windows:
//
//	t+0    attach/detach walk over the shard's slice of the global
//	       attach permutation (per-AP load changes accumulate in
//	       per-shard delta arrays, folded into the shared load table
//	       at the barrier)
//	t+250  mobility for the epoch's cohort; a UE stepping across a slab
//	       boundary stages a handoff Msg to the new owner, applied at
//	       the barrier
//	t+500  the SINR/throughput sweep over owned attached UEs
//	t+750  (fold, single-threaded) load deltas and per-shard aggregates
//	       merge, streaming stats recompute, the epoch's trace record
//	       emits and the epoch counter advances
//
// With Shards <= 1 there is one slab and no cluster: Step runs the same
// phases and the same folds from the caller's goroutine.
//
// # Forked phases
//
// At every shard count, the three per-UE passes — construction's row
// build, mobility and the sweep — fork-join over chunks of the UE index
// range (shard.Fork), up to GOMAXPROCS workers per shard. A worker
// writes only its own UEs' slots and its own partials (a worker value:
// row scratch, serving-AP moves, handoffs, served bits, CQI sum,
// (load, CQI) tally, zero and queue-clipped samples). After the join
// the shard folds the partials into its shardCtx in worker order and
// sends its handoffs in ascending UE order; every folded quantity is an
// integer sum or a sketch bucket count, so no output depends on which
// worker ran which chunk. Attach, the folds and the trace record stay
// serial.
//
// Every quantity that crosses a shard boundary is either an integer
// delta or moment (commutative, so fold order cannot matter) or a
// handoff whose effect is a single ownership byte — which is why the
// same seed and config produce byte-identical trace streams, per-UE
// state and whole-run aggregates at ANY shard count. The 50-seed
// TestMetroShardEquivalence pins that contract;
// TestMetroIndexedEquivalence pins the grid-built adjacency rows to a
// brute ascending scan under the same inclusive r^2 predicate.
package metro

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/lte"
	"cellfi/internal/phy"
	"cellfi/internal/propagation"
	"cellfi/internal/shard"
	"cellfi/internal/sim"
	"cellfi/internal/stats"
	"cellfi/internal/trace"
)

// maxShards is what a ueShard byte can name; maxRow is the longest
// adjacency row a ueServI byte can index.
const (
	maxShards = math.MaxUint8 + 1
	maxRow    = math.MaxUint8 + 1
)

// Phase offsets inside one 1-second epoch; shardWindow is the
// conservative lookahead of the cluster (see package doc).
const (
	epochDur    = time.Second
	shardWindow = 250 * time.Millisecond
	offAttach   = 0
	offMobility = 250 * time.Millisecond
	offSweep    = 500 * time.Millisecond
	offFold     = 750 * time.Millisecond
)

// ueGrain is how many consecutive UE indices a worker claims at a time
// in a forked phase: about a quarter millisecond of sweep.
const ueGrain = 1024

// Cross-shard message kinds.
const (
	// msgHandoff transfers ownership of a UE that walked across a slab
	// boundary. Args: UE index, new owner shard.
	msgHandoff int32 = iota + 1
)

// Config sizes a metro world.
type Config struct {
	Seed int64
	// NAPs / NUEs are the deployment scale.
	NAPs, NUEs int
	// AreaW / AreaH is the city rectangle in metres.
	AreaW, AreaH float64
	// APSpacingM is the minimum AP separation (jittered placement).
	APSpacingM float64
	// RadiusM is the interference-significance radius: APs farther than
	// this from a UE contribute nothing (see DESIGN.md, "The
	// significance radius", for the principled choice).
	RadiusM float64
	// MaxNeighbors bounds each UE's adjacency row. Overflow keeps the
	// lowest AP indices (the grid enumerates ascending). 0 selects 32;
	// New panics above 256: the serving AP's row index is one byte per
	// UE.
	MaxNeighbors int
	// APPowerDBm / noise figure follow the paper's Section 6.3.4 setup.
	APPowerDBm float64
	// DayEpochs is the length of the compressed diurnal cycle driving
	// the attach ramp (1 s epochs). New panics below 1.
	DayEpochs int
	// MinLoadFrac / MaxLoadFrac bound the diurnal attached fraction. New
	// panics unless both lie in [0, 1]: the fraction indexes the attach
	// permutation.
	MinLoadFrac, MaxLoadFrac float64
	// MoveFraction of attached UEs takes a random-waypoint step each
	// epoch at SpeedMps.
	MoveFraction float64
	SpeedMps     float64
	// Shards > 1 runs the world on a conservative parallel cluster of
	// that many vertical slabs (see package doc); 0 or 1 runs the one
	// slab's phases from the caller's goroutine. Either way each phase
	// forks over GOMAXPROCS workers, and results are byte-identical at
	// any shard and core count. New panics above 256: slab ownership is
	// one byte per UE.
	Shards int
}

// DefaultCity returns the headline scenario: 2,000 APs and 100k UEs on
// a 14 km x 7 km city, which must simulate faster than real time (the
// benchmark's city_diurnal workload measures it at one shard).
func DefaultCity(seed int64) Config {
	return Config{
		Seed:         seed,
		NAPs:         2000,
		NUEs:         100_000,
		AreaW:        14_000,
		AreaH:        7_000,
		APSpacingM:   220,
		RadiusM:      800,
		MaxNeighbors: 32,
		APPowerDBm:   30,
		DayEpochs:    240,
		MinLoadFrac:  0.25,
		MaxLoadFrac:  0.95,
		MoveFraction: 0.02,
		SpeedMps:     15,
	}
}

// shardCtx is the per-shard working set: per-AP load deltas staged
// during a window, per-epoch integer aggregates, the shard's share of
// the whole-run throughput samples, and its phases' fork-join workers.
type shardCtx struct {
	loadDelta []int32 // per-AP attach/handover deltas, folded at barriers

	handovers int64 // this epoch
	served    int64 // bits delivered this epoch
	cqiSum    int64 // sum of attached UEs' CQI this epoch

	thr  bitMoments
	thrQ *stats.QuantileSketch

	// workers[i] holds fork-join worker i's partials for this shard's
	// phases; worker 0 is the goroutine running the phase. move and
	// sweep are the phases' chunk functions, built once in New.
	workers     []worker
	move, sweep func(wk *worker, lo, hi int)
	// row is the sweep's fade row, built before the fork.
	row propagation.FadeRow
	// handoffs gathers the workers' handoffs for sending in ascending
	// UE order.
	handoffs []int32
}

// worker is one fork-join worker's partials within a shard's phase. The
// shard folds them into its shardCtx after the join and clears them.
type worker struct {
	scratch []int32 // rebuildRow's grid answer
	// moves holds (old, new) serving-AP pairs, -1 for none, of attached
	// UEs whose row rebuild changed their serving AP: one handover each.
	moves []int32
	// handoffs lists the UEs whose mobility step left the shard's slab.
	handoffs []int32

	served, cqiSum int64
	// tally[load<<4|cqi] counts this sweep's unclipped samples by
	// (serving-AP load, CQI); the fold adds each non-empty cell to the
	// shard's thr and thrQ once. Grows on demand to the highest load
	// seen, then stays.
	tally []int32
	// zeros counts this sweep's out-of-coverage samples; clipped holds
	// its queue-clipped ones, which are not a function of (load, CQI).
	zeros   int64
	clipped []int64

	// chunks counts the chunks this worker has ever claimed.
	chunks int64
	// Keeps neighbouring workers' partials off a shared cache line.
	_ [64]byte
}

// bitMoments accumulates one shard's per-UE served-bit samples as
// integers — count, sum, 128-bit sum of squares, min, max — so that
// merging shards is exact and the merged moments do not depend on how
// the samples were partitioned.
type bitMoments struct {
	n          int64
	sum        uint64
	sqHi, sqLo uint64
	min, max   int64
}

func (m *bitMoments) add(v int64) { m.addN(v, 1) }

// addN absorbs n samples of value v: the same state as n calls of add.
func (m *bitMoments) addN(v, n int64) {
	hi, lo := bits.Mul64(uint64(v), uint64(v))
	carry, lo := bits.Mul64(lo, uint64(n))
	m.merge(bitMoments{n: n, sum: uint64(v) * uint64(n), sqHi: hi*uint64(n) + carry, sqLo: lo, min: v, max: v})
}

func (m *bitMoments) merge(o bitMoments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 || o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
	m.n += o.n
	m.sum += o.sum
	var carry uint64
	m.sqLo, carry = bits.Add64(m.sqLo, o.sqLo, 0)
	m.sqHi += o.sqHi + carry
}

// ThroughputStats summarizes the per-UE throughput samples of a run in
// Mbps, one sample per attached UE per epoch.
type ThroughputStats struct {
	Count          int64
	Mean, Variance float64 // population variance
	Min, Max       float64
}

// World is one instantiated city. All per-UE state is SoA.
type World struct {
	Cfg   Config
	model *propagation.Model
	fade  *propagation.Fading

	// Access points (static).
	apX, apY []float64
	apLoad   []int32 // attached UEs per AP (shared; written only at barriers when sharded)
	grid     *geo.Grid

	// UE state, dense SoA.
	ueX, ueY     []float64
	ueWpX, ueWpY []float64 // random-waypoint targets
	ueWpN        []uint32  // waypoints consumed (per-UE counter-hash stream)
	ueCell       []int32   // serving AP, -1 when out of coverage
	ueServI      []uint8   // serving AP's adjacency-row index (valid when ueCell >= 0)
	ueShard      []uint8   // owning slab
	ueAttached   []bool
	ueQueued     []int64
	ueDelivered  []int64
	ueCQI        []uint8

	// Bounded-degree adjacency, fixed stride Cfg.MaxNeighbors:
	// row u occupies [u*K, u*K+nbrN[u]). nbrRxMW is the mean rx power
	// of that AP at the UE in milliwatts (path loss + shadowing, no
	// fast fading) — float32, since a ~24-bit mantissa is far below the
	// shadowing model's fidelity and halving the row width halves the
	// sweep's memory traffic. Fading link IDs are not stored: the sweep
	// forms LinkID(AP, NAPs+u) in registers from nbrAP.
	nbrAP   []int32
	nbrRxMW []float32
	nbrN    []uint16

	rng     *rand.Rand
	epoch   int64
	noiseMW float64
	// rateBps[cqi] is the one-subchannel downlink rate.
	rateBps [16]float64
	sc      int // the evaluated subchannel

	// attached holds the moments of the attached count per epoch
	// (folded single-threaded; see Attached). The per-UE throughput
	// samples live in the per-shard partials; see Throughput and
	// ThroughputQ.
	attached      bitMoments
	attachSeq     []int32 // diurnal attach order (permutation)
	attachedCount int32

	// Execution plumbing; cluster is nil with a single slab.
	cluster *shard.Cluster
	sctx    []*shardCtx
	slabW   float64
	rec     trace.Recorder
}

// New builds the world: AP placement, UE scatter, adjacency rows, and —
// when Cfg.Shards > 1 — the shard cluster with its per-epoch phase
// events. Call Close to release the cluster's worker goroutines.
func New(cfg Config) *World {
	if cfg.MaxNeighbors <= 0 {
		cfg.MaxNeighbors = 32
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > maxShards {
		panic(fmt.Sprintf("metro: %d shards, want at most %d", cfg.Shards, maxShards))
	}
	if cfg.MaxNeighbors > maxRow {
		panic(fmt.Sprintf("metro: MaxNeighbors %d, want at most %d", cfg.MaxNeighbors, maxRow))
	}
	if cfg.DayEpochs < 1 {
		panic(fmt.Sprintf("metro: DayEpochs %d, want at least 1", cfg.DayEpochs))
	}
	if lo, hi := cfg.MinLoadFrac, cfg.MaxLoadFrac; !(lo >= 0 && lo <= 1 && hi >= 0 && hi <= 1) {
		panic(fmt.Sprintf("metro: MinLoadFrac %v, MaxLoadFrac %v, want both in [0, 1]", lo, hi))
	}
	w := &World{
		Cfg:   cfg,
		model: propagation.DefaultUrban(cfg.Seed),
		fade:  propagation.NewFading(cfg.Seed + 1),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		slabW: cfg.AreaW / float64(cfg.Shards),
	}
	w.sctx = make([]*shardCtx, cfg.Shards)
	for s := range w.sctx {
		w.sctx[s] = &shardCtx{
			loadDelta: make([]int32, cfg.NAPs),
			thrQ:      stats.NewQuantileSketch(0),
			move:      func(wk *worker, lo, hi int) { w.moveChunk(s, wk, lo, hi) },
			sweep:     func(wk *worker, lo, hi int) { w.sweepChunk(s, wk, lo, hi) },
		}
	}
	area := geo.Rect{MinX: 0, MinY: 0, MaxX: cfg.AreaW, MaxY: cfg.AreaH}
	aps := geo.MinSpacedPoints(w.rng, area, cfg.NAPs, cfg.APSpacingM)
	w.apX = make([]float64, cfg.NAPs)
	w.apY = make([]float64, cfg.NAPs)
	w.apLoad = make([]int32, cfg.NAPs)
	for i, p := range aps {
		w.apX[i], w.apY[i] = p.X, p.Y
	}
	w.grid = geo.NewGrid(area, cfg.RadiusM)
	for i, p := range aps {
		w.grid.Insert(int32(i), p)
	}

	n := cfg.NUEs
	w.ueX = make([]float64, n)
	w.ueY = make([]float64, n)
	w.ueWpX = make([]float64, n)
	w.ueWpY = make([]float64, n)
	w.ueWpN = make([]uint32, n)
	w.ueCell = make([]int32, n)
	w.ueServI = make([]uint8, n)
	w.ueShard = make([]uint8, n)
	w.ueAttached = make([]bool, n)
	w.ueQueued = make([]int64, n)
	w.ueDelivered = make([]int64, n)
	w.ueCQI = make([]uint8, n)
	w.nbrAP = make([]int32, n*cfg.MaxNeighbors)
	w.nbrRxMW = make([]float32, n*cfg.MaxNeighbors)
	w.nbrN = make([]uint16, n)
	for u := 0; u < n; u++ {
		p := area.RandomPoint(w.rng)
		q := area.RandomPoint(w.rng)
		w.ueX[u], w.ueY[u] = p.X, p.Y
		w.ueWpX[u], w.ueWpY[u] = q.X, q.Y
		w.ueShard[u] = uint8(w.slabOf(p.X))
	}
	// No UE is attached yet, so the rows' build stages no move.
	shard.Fork(&w.sctx[0].workers, n, ueGrain, func(wk *worker, lo, hi int) {
		wk.chunks++
		for u := lo; u < hi; u++ {
			w.rebuildRow(u, wk)
		}
	})
	w.attachSeq = make([]int32, n)
	for i, v := range w.rng.Perm(n) {
		w.attachSeq[i] = int32(v)
	}

	bw, tdd := lte.BW5MHz, lte.TDDConfig4
	w.sc = 0
	for cqi := 0; cqi <= 15; cqi++ {
		w.rateBps[cqi] = lte.SubchannelRateBps(bw, tdd, w.sc, cqi)
	}
	w.noiseMW = propagation.DBmToMW(propagation.NoiseDBm(bw.SubchannelHz(w.sc), 7))

	if cfg.Shards > 1 {
		w.cluster = shard.New(shard.Config{
			Shards:      cfg.Shards,
			Window:      shardWindow,
			Seed:        cfg.Seed,
			Handler:     w.handleMsg,
			AfterWindow: w.afterWindow,
		})
		for s := 0; s < cfg.Shards; s++ {
			w.scheduleShard(s)
		}
	}
	return w
}

// slabOf maps an x coordinate to its owning shard.
func (w *World) slabOf(x float64) int {
	s := int(x / w.slabW)
	if s < 0 {
		s = 0
	}
	if s >= w.Cfg.Shards {
		s = w.Cfg.Shards - 1
	}
	return s
}

// scheduleShard installs shard s's three self-rescheduling epoch phase
// events (the fold is the cluster's AfterWindow, not an event).
func (w *World) scheduleShard(s int) {
	e := w.cluster.Shard(s).Engine
	var attach, mob, sweep func()
	attach = func() { w.attachPhase(s); e.Schedule(e.Now()+epochDur, attach) }
	mob = func() { w.mobilityPhase(s); e.Schedule(e.Now()+epochDur, mob) }
	sweep = func() { w.sweepPhase(s); e.Schedule(e.Now()+epochDur, sweep) }
	e.Schedule(offAttach, attach)
	e.Schedule(offMobility, mob)
	e.Schedule(offSweep, sweep)
}

// handleMsg applies cross-shard messages at barriers (single-threaded,
// merged (At, Src, Seq) order).
func (w *World) handleMsg(dst int, m shard.Msg) {
	switch m.Kind {
	case msgHandoff:
		w.ueShard[m.Args[0]] = uint8(m.Args[1])
	}
}

// afterWindow is the cluster fold hook: load deltas apply at every
// barrier; the window ending at t+750 ms additionally runs the epoch
// fold.
func (w *World) afterWindow(end sim.Time) {
	w.foldLoads()
	if end%epochDur == offFold {
		w.epochFold()
	}
}

// foldLoads applies and clears every shard's per-AP load deltas, in
// shard order. Integer addition commutes, so the folded loads do not
// depend on the partition.
func (w *World) foldLoads() {
	for _, sc := range w.sctx {
		for a, d := range sc.loadDelta {
			if d != 0 {
				w.apLoad[a] += d
				sc.loadDelta[a] = 0
			}
		}
	}
}

// rebuildRow recomputes UE u's adjacency row and serving AP from its
// current position — the only place link budgets are evaluated, run at
// construction and after a mobility step. The grid returns the APs
// within RadiusM (inclusive r^2 predicate) in ascending index order.
// It writes only UE u's slots and wk.
func (w *World) rebuildRow(u int, wk *worker) {
	k := w.Cfg.MaxNeighbors
	base := u * k
	pos := geo.Point{X: w.ueX[u], Y: w.ueY[u]}
	wk.scratch = w.grid.AppendWithin(wk.scratch[:0], pos, w.Cfg.RadiusM)
	cnt := 0
	for _, a := range wk.scratch {
		if cnt >= k {
			break // bounded degree: keep the lowest indices
		}
		ap := geo.Point{X: w.apX[a], Y: w.apY[a]}
		loss := w.model.LinkLossDB(ap, pos)
		w.nbrAP[base+cnt] = a
		// exp(x·ln10/10) ≡ 10^(x/10) to ~1 ulp in float64 and is ~3x
		// cheaper than math.Pow; the difference vanishes in the float32
		// round, and the function is pure, so every shard count sees the
		// same row.
		w.nbrRxMW[base+cnt] = float32(math.Exp((w.Cfg.APPowerDBm - loss) * (math.Ln10 / 10)))
		cnt++
	}
	w.nbrN[u] = uint16(cnt)

	// Serving AP: strongest mean rx in the row (ascending, strict >,
	// so ties keep the lowest index).
	oldCell := w.ueCell[u]
	best, bestRx, bestI := int32(-1), float32(0), 0
	for i := 0; i < cnt; i++ {
		if w.nbrRxMW[base+i] > bestRx {
			best, bestRx, bestI = w.nbrAP[base+i], w.nbrRxMW[base+i], i
		}
	}
	w.ueCell[u] = best
	w.ueServI[u] = uint8(bestI)
	if w.ueAttached[u] && oldCell != best {
		wk.moves = append(wk.moves, oldCell, best)
	}
}

// loadFrac returns the diurnal attached fraction for an epoch: a raised
// cosine over the compressed day.
func (w *World) loadFrac(epoch int64) float64 {
	cfg := w.Cfg
	phase := 2 * math.Pi * float64(epoch%int64(cfg.DayEpochs)) / float64(cfg.DayEpochs)
	return cfg.MinLoadFrac + (cfg.MaxLoadFrac-cfg.MinLoadFrac)*0.5*(1-math.Cos(phase))
}

// attachTarget is the attached population after epoch's attach phase —
// a pure function of the epoch, which is what lets every shard walk its
// slice of the permutation without coordination.
func (w *World) attachTarget(epoch int64) int {
	return int(w.loadFrac(epoch) * float64(w.Cfg.NUEs))
}

// attachPhase moves shard s's share of the attached population toward
// the diurnal target. All shards walk the same global permutation range
// [attachedCount, target) and act only on owned UEs.
func (w *World) attachPhase(s int) {
	target := w.attachTarget(w.epoch)
	prev := int(w.attachedCount)
	sc := w.sctx[s]
	own := uint8(s)
	for i := prev; i < target; i++ {
		u := w.attachSeq[i]
		if w.ueShard[u] != own {
			continue
		}
		w.ueAttached[u] = true
		w.ueQueued[u] = 1 << 40 // backlogged
		if c := w.ueCell[u]; c >= 0 {
			sc.loadDelta[c]++
		}
	}
	for i := prev - 1; i >= target; i-- {
		u := w.attachSeq[i]
		if w.ueShard[u] != own {
			continue
		}
		w.ueAttached[u] = false
		if c := w.ueCell[u]; c >= 0 {
			sc.loadDelta[c]--
		}
	}
}

// mobilityPhase advances random-waypoint walks for shard s's members of
// the epoch's deterministic cohort and rebuilds their adjacency rows,
// forked over UE chunks. Fresh waypoints come from a per-UE counter
// hash — not a shared RNG — so the draw a UE sees is independent of
// which shard or worker moves it and of how many other UEs moved first.
// After the join the shard stages the handovers' load deltas and sends
// a handoff Msg for each UE that stepped across a slab boundary, in
// ascending UE order, so Send numbers them the same at any core count.
func (w *World) mobilityPhase(s int) {
	if w.Cfg.MoveFraction <= 0 {
		return
	}
	sc := w.sctx[s]
	shard.Fork(&sc.workers, w.Cfg.NUEs, ueGrain, sc.move)
	sc.handoffs = sc.handoffs[:0]
	for i := range sc.workers {
		wk := &sc.workers[i]
		sc.handovers += int64(len(wk.moves) / 2)
		for j := 0; j < len(wk.moves); j += 2 {
			if old := wk.moves[j]; old >= 0 {
				sc.loadDelta[old]--
			}
			if best := wk.moves[j+1]; best >= 0 {
				sc.loadDelta[best]++
			}
		}
		wk.moves = wk.moves[:0]
		sc.handoffs = append(sc.handoffs, wk.handoffs...)
		wk.handoffs = wk.handoffs[:0]
	}
	if len(sc.handoffs) == 0 { // always with a single slab
		return
	}
	slices.Sort(sc.handoffs)
	sh := w.cluster.Shard(s)
	for _, u := range sc.handoffs {
		ns := w.slabOf(w.ueX[u])
		sh.Send(shard.Msg{
			At:   sh.Engine.Now() + shardWindow,
			Dst:  int32(ns),
			Kind: msgHandoff,
			Args: [4]int64{int64(u), int64(ns)},
		})
	}
}

// moveChunk is mobilityPhase's work on UEs [lo, hi): a rotating
// deterministic cohort, every stride-th UE, moves each epoch, identical
// at every shard count.
func (w *World) moveChunk(s int, wk *worker, lo, hi int) {
	wk.chunks++
	cfg := &w.Cfg
	stride := 1
	if cfg.MoveFraction < 1 {
		stride = int(1 / cfg.MoveFraction)
	}
	step := cfg.SpeedMps * float64(stride) // cohort moves every stride epochs
	own := uint8(s)
	// The first cohort member at or after lo.
	first := lo + (int(w.epoch%int64(stride))-lo%stride+stride)%stride
	for u := first; u < hi; u += stride {
		if w.ueShard[u] != own || !w.ueAttached[u] {
			continue
		}
		dx, dy := w.ueWpX[u]-w.ueX[u], w.ueWpY[u]-w.ueY[u]
		d := math.Sqrt(dx*dx + dy*dy)
		if d <= step {
			w.ueX[u], w.ueY[u] = w.ueWpX[u], w.ueWpY[u]
			w.ueWpN[u]++
			fx, fy := waypointAt(cfg.Seed, u, w.ueWpN[u])
			w.ueWpX[u] = fx * cfg.AreaW
			w.ueWpY[u] = fy * cfg.AreaH
		} else {
			w.ueX[u] += step * dx / d
			w.ueY[u] += step * dy / d
		}
		w.rebuildRow(u, wk)
		if w.slabOf(w.ueX[u]) != s { // never with a single slab
			wk.handoffs = append(wk.handoffs, int32(u))
		}
	}
}

// waypointAt returns UE u's n-th waypoint as a pair of [0,1) fractions,
// from a SplitMix64-style counter hash of (seed, u, n).
func waypointAt(seed int64, u int, n uint32) (fx, fy float64) {
	h := mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(u)<<20 ^ uint64(n))
	h2 := mix64(h)
	return float64(h>>11) / (1 << 53), float64(h2>>11) / (1 << 53)
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sweepPhase is the cache-linear SINR/throughput sweep over shard s's
// attached UEs, forked over UE chunks: one fused fade-and-sum pass per
// adjacency row. It reads the shared load table (frozen during windows)
// and writes only owned per-UE slots and its workers' partials, which
// it then folds into the shard's aggregates.
func (w *World) sweepPhase(s int) {
	sc := w.sctx[s]
	// The whole sweep shares the subchannel and coherence block, so one
	// fade row serves every UE; draws are counter-hashed per link, so
	// which of them get evaluated does not perturb any other.
	sc.row = w.fade.Row(w.sc, w.epoch*1000)
	shard.Fork(&sc.workers, w.Cfg.NUEs, ueGrain, sc.sweep)
	for i := range sc.workers {
		wk := &sc.workers[i]
		sc.served += wk.served
		sc.cqiSum += wk.cqiSum
		wk.served, wk.cqiSum = 0, 0
		// One moments update and one sketch insert (one log) per
		// distinct (load, CQI) pair the worker saw, instead of one per
		// attached UE.
		for cell, n := range wk.tally {
			if n == 0 {
				continue
			}
			wk.tally[cell] = 0
			served := servedBits(w.rateBps[cell&15], int32(cell>>4))
			sc.thr.addN(served, int64(n))
			sc.thrQ.AddN(float64(served)/1e6, int64(n))
		}
		if wk.zeros > 0 {
			sc.thr.addN(0, wk.zeros)
			sc.thrQ.AddN(0, wk.zeros)
			wk.zeros = 0
		}
		for _, v := range wk.clipped {
			sc.thr.add(v)
			sc.thrQ.Add(float64(v) / 1e6)
		}
		wk.clipped = wk.clipped[:0]
	}
}

// sweepChunk is sweepPhase's work on UEs [lo, hi).
func (w *World) sweepChunk(s int, wk *worker, lo, hi int) {
	wk.chunks++
	cfg := &w.Cfg
	sc := w.sctx[s]
	own := uint8(s)
	k := cfg.MaxNeighbors
	for u := lo; u < hi; u++ {
		if w.ueShard[u] != own || !w.ueAttached[u] {
			continue
		}
		serving := w.ueCell[u]
		if serving < 0 {
			w.ueCQI[u] = 0
			wk.zeros++
			continue
		}
		base := u * k
		n := int(w.nbrN[u])
		aps, rx := w.nbrAP[base:base+n], w.nbrRxMW[base:base+n]
		// Branchless: one fused draw-and-sum pass over the whole row, then
		// peel the serving term off by its cached row index. The
		// subtraction's rounding error is bounded by ~n ulps of the total —
		// negligible next to the thermal noise floor already in den, and
		// identical across shard counts. sig is positive: the serving AP
		// was picked with rx > 0 and the fade draw never returns 0.
		total, sig := sc.row.WeightedSum(aps, cfg.NAPs+u, rx, int(w.ueServI[u]))
		den := w.noiseMW + (total - sig)
		cqi := phy.LTECQIFromLinearSINR(sig, den)
		w.ueCQI[u] = uint8(cqi)
		wk.cqiSum += int64(cqi)
		load := w.apLoad[serving]
		served := servedBits(w.rateBps[cqi], load)
		if served > w.ueQueued[u] {
			// Queue-clipped: the sample is what was left, not a function
			// of (load, CQI), so it takes the per-sample path.
			served = w.ueQueued[u]
			wk.clipped = append(wk.clipped, served)
		} else {
			cell := int(load)<<4 | cqi
			if cell >= len(wk.tally) {
				wk.tally = append(wk.tally, make([]int32, cell+1-len(wk.tally))...)
			}
			wk.tally[cell]++
		}
		w.ueQueued[u] -= served
		w.ueDelivered[u] += served
		wk.served += served
	}
}

// servedBits is what one backlogged UE is served in a 1 s epoch on an AP
// shared load ways: a pure function of the (load, CQI) pair, which is
// what lets the sweep tally pairs and fold each once.
func servedBits(rateBps float64, load int32) int64 {
	return int64(rateBps / float64(load))
}

// epochFold closes one epoch, single-threaded: commit the attach
// target, sum the per-shard epoch counters, emit the epoch's
// KindMetroEpoch record and advance the epoch.
func (w *World) epochFold() {
	target := w.attachTarget(w.epoch)
	w.attachedCount = int32(target)
	w.attached.add(int64(target))
	var hand, served, cqis int64
	for _, sc := range w.sctx {
		hand += sc.handovers
		served += sc.served
		cqis += sc.cqiSum
		sc.handovers, sc.served, sc.cqiSum = 0, 0, 0
	}
	if w.rec != nil {
		w.rec.Record(trace.Record{
			T:    int64((time.Duration(w.epoch)*epochDur + offFold)),
			Args: [4]int64{int64(target), hand, served, cqis},
			AP:   -1,
			Kind: trace.KindMetroEpoch,
			N:    4,
		})
	}
	w.epoch++
}

// Step advances one 1-second epoch.
func (w *World) Step() { w.Run(1) }

// Run advances the world the given number of epochs. A single slab runs
// the cluster's schedule — phase, load fold, ..., epoch fold — from the
// caller's goroutine; more slabs advance the cluster. Run panics if the
// run would end past the last epoch a sim.Time can hold (about 9.2e9),
// rather than wrap its horizon and simulate nothing.
func (w *World) Run(epochs int) {
	if int64(epochs) > math.MaxInt64/int64(epochDur)-w.epoch {
		panic(fmt.Sprintf("metro: Run(%d) from epoch %d ends past the last epoch a sim.Time holds (%d)",
			epochs, w.epoch, math.MaxInt64/int64(epochDur)))
	}
	if w.cluster != nil {
		w.cluster.Run(time.Duration(w.epoch+int64(epochs)) * epochDur)
		return
	}
	for i := 0; i < epochs; i++ {
		w.attachPhase(0)
		w.foldLoads()
		w.mobilityPhase(0)
		w.foldLoads()
		w.sweepPhase(0)
		w.epochFold()
	}
}

// Close releases the shard cluster's worker goroutines (no-op with a
// single slab). The world stays readable.
func (w *World) Close() {
	if w.cluster != nil {
		w.cluster.Close()
	}
}

// SetRecorder attaches a flight recorder for the per-epoch
// KindMetroEpoch records. Attach before the first Step/Run; the fold
// emits single-threaded, so one recorder serves every shard.
func (w *World) SetRecorder(r trace.Recorder) { w.rec = r }

// ShardStats returns the cluster telemetry snapshot; ok is false with a
// single slab (there is no cluster).
func (w *World) ShardStats() (st shard.Stats, ok bool) {
	if w.cluster == nil {
		return shard.Stats{}, false
	}
	return w.cluster.Stats(), true
}

// Throughput returns the whole-run per-UE throughput moments, merged
// from the per-shard integer partials: identical at any shard count.
func (w *World) Throughput() ThroughputStats {
	var m bitMoments
	for _, sc := range w.sctx {
		m.merge(sc.thr)
	}
	if m.n == 0 {
		return ThroughputStats{}
	}
	n := float64(m.n)
	mean := float64(m.sum) / n
	meanSq := (float64(m.sqHi)*0x1p64 + float64(m.sqLo)) / n
	return ThroughputStats{
		Count:    m.n,
		Mean:     mean / 1e6,
		Variance: math.Max(0, meanSq-mean*mean) / 1e12,
		Min:      float64(m.min) / 1e6,
		Max:      float64(m.max) / 1e6,
	}
}

// ThroughputQ returns the quantile sketch of the same sample stream in
// Mbps, merged from the per-shard sketches (an exact bucket-wise add).
func (w *World) ThroughputQ() *stats.QuantileSketch {
	q := stats.NewQuantileSketch(0)
	for _, sc := range w.sctx {
		q.Merge(sc.thrQ)
	}
	return q
}

// Epoch returns the number of completed epochs (== simulated seconds).
func (w *World) Epoch() int64 { return w.epoch }

// AttachedCount returns the currently attached UE population.
func (w *World) AttachedCount() int { return int(w.attachedCount) }

// Attached returns the mean and peak of the attached population over
// the completed epochs (zeros before the first).
func (w *World) Attached() (mean float64, peak int) {
	if w.attached.n == 0 {
		return 0, 0
	}
	return float64(w.attached.sum) / float64(w.attached.n), int(w.attached.max)
}

// DeliveredBits returns total downlink bits delivered so far.
func (w *World) DeliveredBits() int64 {
	var sum int64
	for _, v := range w.ueDelivered {
		sum += v
	}
	return sum
}

// UEState exposes one UE's SoA slots (tests and tooling).
func (w *World) UEState(u int) (x, y float64, cell int32, delivered int64, cqi uint8) {
	return w.ueX[u], w.ueY[u], w.ueCell[u], w.ueDelivered[u], w.ueCQI[u]
}
