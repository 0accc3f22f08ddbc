package main

import (
	"math"
	"math/rand"
	"time"

	"cellfi/internal/core"
	"cellfi/internal/geo"
	"cellfi/internal/invariant"
	"cellfi/internal/lte"
	"cellfi/internal/metro"
	"cellfi/internal/netgraph"
	"cellfi/internal/oracle"
	"cellfi/internal/phy"
	"cellfi/internal/propagation"
	"cellfi/internal/shard"
	"cellfi/internal/sim"
	"cellfi/internal/stats"
	"cellfi/internal/topo"
	"cellfi/internal/trace"
	"cellfi/internal/wifi"
)

// The kernels below time public functions that sit too deep inside a
// Step() or an experiment to be wrapped in a span from outside. Each
// calls the function with the shape of inputs the workloads produce;
// the numbers are estimates of the layer's unit cost, not shares of a
// run, and only traced runs take them.

// sinkF / sinkI keep kernel results alive so the calls are not
// optimised away.
var (
	sinkF float64
	sinkI int
)

func mergeInto(dst map[string]float64, srcs ...map[string]float64) map[string]float64 {
	for _, src := range srcs {
		for k, v := range src {
			dst[k] = v
		}
	}
	return dst
}

func kernelsSim(e *env) map[string]float64 {
	// One self-rescheduling chain: pure Schedule+fire on a depth-1 heap.
	fire := e.nsPerOp(func(n int) {
		e := sim.NewEngine(1)
		fired := 0
		var tick func()
		tick = func() {
			fired++
			if fired < n {
				e.After(time.Microsecond, tick)
			}
		}
		e.After(0, tick)
		e.RunAll()
	})
	return map[string]float64{"sim.schedule_fire_ns": fire}
}

func kernelsLTE(e *env) map[string]float64 {
	m := map[string]float64{}

	// One TDD subframe of a 4-UE full-buffer cell with one interferer.
	eng := sim.NewEngine(1)
	lenv := lte.NewEnvironment(1)
	cell := &lte.Cell{ID: 1, TxPowerDBm: 30, BW: lte.BW5MHz, TDD: lte.TDDConfig4, Activity: lte.FullBuffer}
	interferer := &lte.Cell{ID: 2, Pos: geo.Point{X: 900}, TxPowerDBm: 30,
		BW: lte.BW5MHz, TDD: lte.TDDConfig4, Activity: lte.FullBuffer}
	var clients []*lte.Client
	for i, d := range []float64{100, 250, 400, 600} {
		clients = append(clients, &lte.Client{ID: 100 + i, Pos: geo.Point{X: d}, TxPowerDBm: 20})
	}
	cs := lte.NewCellSim(eng, lenv, cell, clients)
	cs.Interferers = []*lte.Cell{interferer}
	cs.Start()
	for _, cl := range clients {
		cs.Backlog(cl.ID, 1<<40)
	}
	horizon := sim.Time(0)
	m["lte.subframe_ns"] = e.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			horizon += lte.SubframeDuration
			eng.Run(horizon)
		}
	})

	// Proportional-fair allocation of 8 backlogged UEs over the carrier.
	bw := lte.BW5MHz
	s := bw.Subchannels()
	allowed := make([]int, s)
	for i := range allowed {
		allowed[i] = i
	}
	ues := make([]*lte.SchedUE, 8)
	for i := range ues {
		cqi := make([]int, s)
		for k := range cqi {
			cqi[k] = 3 + (i+k)%10
		}
		ues[i] = &lte.SchedUE{ID: i, SubbandCQI: cqi}
	}
	pf := &lte.ProportionalFair{}
	var scratch lte.AllocScratch
	m["lte.sched_allocate_ns"] = e.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			for _, u := range ues {
				u.BacklogBits = 1 << 30
			}
			pf.Allocate(&scratch, bw, allowed, ues)
		}
	})

	// One mode 3-0 CQI report over the carrier's subchannels.
	rep := lte.NewCQIReporter(0.01, rand.New(rand.NewSource(1)))
	sig, den, sub := make([]float64, s), make([]float64, s), make([]int, s)
	for k := range sig {
		sig[k], den[k] = math.Pow(10, float64(k-3)/10), 1
	}
	m["lte.cqi_report_ns"] = e.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sinkI += rep.ReportLinearInto(sig, den, sub).Wideband
		}
	})

	// The low-complexity PRACH detector on one clean preamble.
	const root = 129
	rx := lte.GeneratePreamble(lte.Preamble{Root: root, Shift: 13})
	det := lte.NewFastDetector(root)
	m["lte.prach_detect_us"] = e.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			if det.Detect(rx).Detected {
				sinkI++
			}
		}
	}) / 1e3
	return m
}

func kernelsWiFi(e *env) map[string]float64 {
	// Fig 9's densest Wi-Fi arm: 14 APs x 6 backlogged clients, 802.11af.
	tp := topo.Generate(topo.Paper(14, 6), 1)
	eng := sim.NewEngine(1)
	n := wifi.NewNetwork(eng, propagation.DefaultUrban(1), wifi.Params11af())
	id := 1
	for i, apPos := range tp.APs {
		ap := n.AddAP(id, apPos, 30)
		id++
		for _, cp := range tp.Clients[i] {
			ap.Enqueue(n.AddClient(id, cp, 30, ap), 1<<40)
			id++
		}
	}
	// Three simulated seconds, timed one at a time; the collision rate
	// is read at a fixed simulated time, so it repeats exactly.
	perMS := make([]float64, 3)
	for i := range perMS {
		t0 := time.Now()
		eng.Run(sim.Time(i+1) * time.Second)
		perMS[i] = float64(time.Since(t0).Nanoseconds()) / 1000
	}
	return map[string]float64{
		"wifi.csma_ns_per_sim_ms": median(perMS),
		"wifi.collision_rate":     n.Stats().CollisionRate(),
	}
}

func kernelsCore(e *env) map[string]float64 {
	m := map[string]float64{}

	// One controller epoch on a 13-subchannel carrier, share 4, with
	// one held subchannel observed bad by half its clients.
	const s = 13
	ctl := core.NewController(s, rand.New(rand.NewSource(1)))
	in := core.EpochInput{TargetShare: 4, BadFrac: map[int]float64{},
		Utility: map[int]float64{}, SensedBusy: map[int]bool{2: true, 7: true}, PackCandidate: map[int]int{}}
	for k := 0; k < s; k++ {
		in.Utility[k] = float64(1 + k%5)
	}
	m["core.controller_epoch_ns"] = e.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			clear(in.BadFrac)
			if held := ctl.Epoch(in); len(held) > 0 {
				in.BadFrac[held[0]] = 0.5
			}
		}
	})

	// Theorem 1's abstract process: 48 vertices, ~3 expected conflicts
	// each, demand 1-2, 30% fades; cost per synchronous round.
	rng := rand.New(rand.NewSource(1))
	g := netgraph.New(48)
	for i := 0; i < 48; i++ {
		for j := i + 1; j < 48; j++ {
			if rng.Float64() < 3.0/48 {
				g.AddEdge(i, j)
			}
		}
		g.Demand[i] = 1 + rng.Intn(2)
	}
	m["core.hopmodel_round_ns"] = e.nsPerOp(func(n int) {
		h := core.NewHopModel(g, s, 0.3, rng)
		for i := 0; i < n; i++ {
			h.Round()
		}
	})

	// The centralized oracle on Fig 9b's size: 14 cells, dense conflicts.
	og := netgraph.New(14)
	for i := 0; i < 14; i++ {
		for j := i + 1; j < 14; j++ {
			if rng.Float64() < 0.4 {
				og.AddEdge(i, j)
			}
		}
		og.Demand[i] = 3
	}
	m["oracle.allocate_ms"] = e.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			a, _ := oracle.Allocate(og, s)
			sinkI += oracle.TotalAllocated(a)
		}
	}) / 1e6
	return m
}

func kernelsPropagation(e *env) map[string]float64 {
	m := map[string]float64{}

	// One fade gain through the batch kernel, amortised over 32-link
	// rows (the metro adjacency row width).
	f := propagation.NewFading(1)
	links := make([]uint64, 32)
	for i := range links {
		links[i] = propagation.LinkID(i, 2000+i)
	}
	dst := make([]float64, 0, 32)
	m["propagation.fade_batch_ns_per_link"] = e.nsPerOp(func(n int) {
		for i := 0; i < n; i += 32 {
			dst = f.AppendGainsLinear(dst[:0], links, 3, int64(4200+i))
		}
		sinkF += dst[0]
	})

	// A warm link-cache lookup, and the shadowing draw a miss pays.
	model := propagation.DefaultUrban(1)
	lc := propagation.NewLinkCache(model, 2)
	tx, rx := geo.Point{}, geo.Point{X: 300, Y: 40}
	m["propagation.linkcache_lookup_ns"] = e.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sinkF += lc.PathGainLinear(0, 1, tx, rx)
		}
	})
	m["propagation.shadowing_ns"] = e.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sinkF += model.ShadowingDB(tx, geo.Point{X: 300, Y: float64(i & 1023)})
		}
	})
	return m
}

func kernelsPhy(e *env) map[string]float64 {
	// Linear ratios across the operating range, -10..+28 dB.
	ratios := make([]float64, 256)
	for i := range ratios {
		ratios[i] = math.Pow(10, (-10+38*float64(i)/255)/10)
	}
	return map[string]float64{
		"phy.cqi_linear_ns": e.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				sinkI += phy.LTECQIFromLinearSINR(ratios[i&255], 1)
			}
		}),
		// EESM over one carrier's 13 subchannels.
		"phy.eesm_linear_ns": e.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				o := i & 127
				sinkF += phy.EffectiveSINRdBFromLinear(ratios[o : o+13])
			}
		}),
	}
}

func kernelsGeo(e *env, cfg metro.Config) map[string]float64 {
	// The city's AP grid: radius queries from UE positions, and moves.
	rng := rand.New(rand.NewSource(7))
	area := geo.Rect{MaxX: cfg.AreaW, MaxY: cfg.AreaH}
	g := geo.NewGrid(area, cfg.RadiusM)
	for i, p := range geo.MinSpacedPoints(rng, area, cfg.NAPs, cfg.APSpacingM) {
		g.Insert(int32(i), p)
	}
	probes := area.RandomPoints(rng, 1024)
	scratch := make([]int32, 0, 256)
	return map[string]float64{
		"geo.grid_query_ns": e.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				scratch = g.AppendWithin(scratch[:0], probes[i&1023], cfg.RadiusM)
			}
		}),
		"geo.grid_move_ns": e.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				g.Move(int32(i%g.Len()), probes[i&1023])
			}
		}),
	}
}

func kernelsStats(e *env) map[string]float64 {
	// Per-UE throughput samples into the streaming quantile sketch.
	sk := stats.NewQuantileSketch(0.01)
	return map[string]float64{"stats.sketch_add_ns": e.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sk.Add(0.05 + float64(i&1023)*0.01)
		}
	})}
}

// kernelShardBarrier times one empty conservative window at k shards:
// dispatch, park, harvest, fold, with no shard work in between.
func kernelShardBarrier(e *env, k int) float64 {
	const win = 250 * time.Millisecond
	c := shard.New(shard.Config{Shards: k, Window: win, Seed: 1})
	defer c.Close()
	c.Run(8 * win)
	return e.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			c.Run(c.Now() + win)
		}
	})
}

func kernelsObs(e *env) map[string]float64 {
	rec := trace.Record{T: 1, AP: 3, Kind: trace.KindIMHop,
		N: 3, Args: [trace.MaxArgs]int64{2, 5, trace.HopCauseBucket}}
	ring := trace.NewRing(0)
	var chk invariant.Checker
	return map[string]float64{
		"trace.ring_record_ns": e.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				rec.T += 1000
				ring.Record(rec)
			}
		}),
		"invariant.observe_ns": e.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				rec.T += 1000
				chk.Record(rec)
			}
		}),
	}
}
