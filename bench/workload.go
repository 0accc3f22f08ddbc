package main

import (
	"fmt"
	"runtime"
	"time"
)

// env is what a workload is built from: the seed its inputs derive
// from, the test-only size factor, the parallelism it may use, and the
// tracer (nil outside traced runs).
type env struct {
	seed  int64
	scale float64 // 1 = the sizes BENCHMARK.json was taken at
	procs int     // GOMAXPROCS; also the cap on load workers/connections
	tr    *tracer
}

// scaled shrinks a full-size count by the -scale factor, keeping at
// least lo.
func (e *env) scaled(n, lo int) int {
	v := int(float64(n)*e.scale + 0.5)
	if v < lo {
		v = lo
	}
	return v
}

// instance is one built world of a workload.
type instance interface {
	// warm brings the world to steady state; it is part of set-up.
	warm()
	// block performs one block of fixed work and appends the latency of
	// each operation, in ns, to lat. run tags the block's spans.
	block(run int32, lat []int64) []int64
	// verify runs the workload's correctness checks after the timed
	// section.
	verify() verdict
	// layers returns the workload's per-layer metrics; called only in
	// traced runs, after verify.
	layers(r *runResult) map[string]float64
	close()
}

// verdict is the outcome of a workload's correctness checks.
type verdict struct {
	attempted, failed int64
	digest            string   // simulated-statistics digest ("" for the paws workloads)
	notes             []string // one line per failed check
}

// check counts one correctness check and notes it when it failed.
func (v *verdict) check(ok bool, format string, a ...any) {
	v.attempted++
	if !ok {
		v.failed++
		v.notes = append(v.notes, fmt.Sprintf(format, a...))
	}
}

// builder builds one world of a workload from already generated inputs.
type builder func() (instance, error)

// workload is one named entry of BENCHMARK.json. prepare generates the
// workload's inputs from the seed, once per run and untimed (it is the
// load generator's work, not the program's), and returns the builder
// whose calls are timed as set-up. sequential says every block issues
// the same ops in the same order from one goroutine, so op i of one
// block is comparable with op i of the next.
type workload struct {
	name       string
	sequential bool
	prepare    func(e *env) (builder, error)
}

// direct adapts a workload with no inputs to generate.
func direct(setup func(e *env) (instance, error)) func(e *env) (builder, error) {
	return func(e *env) (builder, error) {
		return func() (instance, error) { return setup(e) }, nil
	}
}

func workloads() []workload {
	return []workload{
		{"repro_full", true, direct(setupRepro)},
		{"im_dense", true, direct(setupIMDense)},
		{"city_diurnal", true, direct(func(e *env) (instance, error) { return setupCity(e, false) })},
		{"city_sharded", true, direct(func(e *env) (instance, error) { return setupCity(e, true) })},
		{"paws_wire", false, preparePawsWire},
		{"paws_lean_steady", false, func(e *env) (builder, error) { return preparePawsLean(e, false) }},
		{"paws_lean_churn", false, func(e *env) (builder, error) { return preparePawsLean(e, true) }},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runResult is everything one run of one workload measured.
type runResult struct {
	verdict verdict
	blocks  []blockStat
	quiet   blockStat // the quiet-machine estimate of one block; see quietBlock
	setups  []float64 // s, one per set-up (build + warm-up)
	builds  []float64 // s, the build part of each set-up
	liveMB  float64   // heap still live after a collection at the end of the timed section
	peakRSS float64   // MB, process peak after the timed section
	allocB  uint64    // bytes allocated in the timed section
	allocN  uint64    // objects allocated in the timed section
	timedS  float64   // wall time of the whole timed section
	// untracedOpsPerS is the rate of the untraced reference block a
	// traced run measures first (0 in untraced runs).
	untracedOpsPerS float64
	metrics         map[string]float64
}

func (r *runResult) ops() int {
	n := 0
	for _, b := range r.blocks {
		n += b.ops
	}
	return n
}

// minBlocks is the fewest blocks a run measures whatever the time
// budget: the quiet estimate and the repeat-digest checks need two.
const minBlocks = 2

// setupRepeats is how many times a run builds and warms its world;
// setup_s is the median. The extra builds happen after the timed
// section so memory figures stay those of a single world.
const setupRepeats = 3

// runWorkload builds the workload, measures blocks of work for about
// `seconds`, checks correctness and returns the measurements.
func runWorkload(w workload, e *env, seconds float64) (*runResult, error) {
	res := &runResult{metrics: map[string]float64{}}
	tr := e.tr
	defer func() { e.tr = tr }()
	root := tr.buf()
	e.tr = nil // only the timed blocks of a traced run record spans

	build, err := w.prepare(e)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	// setUp is everything that happens before the timed section: the
	// build and the warm-up that brings caches and lazy state up.
	setUp := func() (instance, error) {
		t0 := time.Now()
		inst, err := build()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		t1 := time.Now()
		inst.warm()
		t2 := time.Now()
		res.setups = append(res.setups, t2.Sub(t0).Seconds())
		res.builds = append(res.builds, t1.Sub(t0).Seconds())
		root.add("bench.build", 0, 0, t0, t1)
		root.add("bench.warm", 0, 0, t1, t2)
		return inst, nil
	}
	inst, err := setUp()
	if err != nil {
		return nil, err
	}

	var lat []int64
	var passes [][]int64 // sequential workloads: every block's op latencies
	measure := func(budget float64, least int, run0 int32) []blockStat {
		var out []blockStat
		start := time.Now()
		for n := 0; n < least || time.Since(start).Seconds() < budget; n++ {
			b0 := time.Now()
			lat = inst.block(run0+int32(n), lat[:0])
			out = append(out, newBlockStat(time.Since(b0), lat))
			if w.sequential && run0 > 0 {
				passes = append(passes, append([]int64(nil), lat...))
			}
		}
		return out
	}

	if tr != nil {
		// One block with tracing off: the reference rate for
		// bench.trace_overhead_pct, and a peak RSS no span inflates.
		ref := measure(0, 1, -1)
		res.untracedOpsPerS = float64(ref[0].ops) / ref[0].wallS
		res.peakRSS = peakRSSMB()
		e.tr = tr
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ts := time.Now()
	res.blocks = measure(seconds, minBlocks, 1)
	res.timedS = time.Since(ts).Seconds()
	runtime.ReadMemStats(&m1)
	res.allocB, res.allocN = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	e.tr = nil
	if tr == nil {
		res.peakRSS = peakRSSMB()
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.liveMB = float64(m1.HeapAlloc) / 1e6
	if w.sequential {
		res.quiet = quietPass(passes)
	} else {
		res.quiet = quietBlock(res.blocks)
	}

	tv := time.Now()
	res.verdict = inst.verify()
	root.add("bench.verify", 0, 0, tv, time.Now())
	if w.sequential {
		// A simulation op cannot fail by itself; the checks judge them all.
		res.verdict.attempted += int64(res.ops())
	}
	if tr != nil {
		mergeInto(res.metrics, inst.layers(res))
	}
	inst.close()

	repeats := setupRepeats
	if e.scale < 1 {
		repeats = 1 // scaled runs exist to finish fast
	}
	for i := 1; i < repeats; i++ {
		again, err := setUp()
		if err != nil {
			return nil, err
		}
		again.close()
	}

	res.metrics[mSetupS] = median(res.setups)
	res.metrics[mWallS] = res.quiet.wallS
	res.metrics[mOpsPerS] = float64(res.quiet.ops) / res.quiet.wallS
	res.metrics[mOpMsP50] = res.quiet.p50
	res.metrics[mOpMsP95] = res.quiet.p95
	res.metrics[mLiveHeapMB] = res.liveMB
	return res, nil
}
