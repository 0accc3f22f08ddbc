// Package runner executes fleets of independent simulation scenarios —
// "campaigns" — across a bounded worker pool, with deterministic
// results, panic isolation and per-run telemetry.
//
// Every figure reproduction, parameter sweep and ablation in this repo
// is a set of independent deterministic runs: build a scenario from a
// seed, simulate, reduce. That is an embarrassingly parallel shape, so
// the runner fans a []Spec across workers (GOMAXPROCS by default) that
// claim work from a shared index — idle workers steal whatever spec is
// next, so an expensive run never serializes the rest of the fleet.
//
// Determinism: each Spec carries its own seed, scenario code derives
// all randomness from it (via Ctx.Engine or the seed directly), and
// results land in a slice indexed by spec order. Aggregated output is
// therefore bit-identical regardless of worker count or scheduling
// order; runner_test.go enforces this.
//
// Failure isolation: a panicking scenario is recorded as a failed run
// (with its stack) and the campaign continues. Cancelling the context
// stops workers from claiming new specs; already-running scenarios
// finish and runs never claimed are recorded as canceled.
//
// Telemetry: each run records wall time and the event counters of
// every sim.Engine it registered through its Ctx; Report aggregates
// them and serializes to JSON (see report.go).
package runner

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"cellfi/internal/invariant"
	"cellfi/internal/sim"
	"cellfi/internal/trace"
)

// Spec describes one scenario run: a label for telemetry, the seed all
// scenario randomness must derive from, and the scenario constructor/
// executor itself.
type Spec struct {
	// Label identifies the run in reports ("fig9a/aps=14/trial=2").
	Label string
	// Seed is the run's deterministic seed. The runner never touches
	// it; it is recorded in telemetry and exposed via Ctx.Seed.
	Seed int64
	// Run builds and executes the scenario. The returned value is
	// collected into the Report in spec order. Returning an error or
	// panicking marks the run failed without aborting the campaign.
	Run func(c *Ctx) (any, error)
}

// Ctx is the per-run context handed to a Spec's Run function. It wires
// scenario-internal simulation engines into the campaign telemetry. A
// Ctx is owned by one run; it is safe for use from goroutines the
// scenario itself spawns.
type Ctx struct {
	spec  *Spec
	index int
	opts  *Options

	mu      sync.Mutex
	engines []*sim.Engine
	steps   int64

	traceRing *trace.Ring
	tracePath string
	traceErr  error

	checker *invariant.Checker
	rec     trace.Recorder
}

// Seed returns the spec's deterministic seed.
func (c *Ctx) Seed() int64 { return c.spec.Seed }

// Engine creates a discrete-event engine seeded with seed and tracks
// it: its event counters are pulled into the run's telemetry after the
// scenario finishes. With trace capture on (Options.TraceDir) the
// engine's flight recorder is attached automatically.
func (c *Ctx) Engine(seed int64) *sim.Engine {
	e := sim.NewEngine(seed)
	c.mu.Lock()
	c.engines = append(c.engines, e)
	if r := c.recorderLocked(); r != nil {
		e.SetRecorder(r)
	}
	c.mu.Unlock()
	return e
}

// Recorder returns the run's flight recorder, or nil when the campaign
// neither captures traces (Options.TraceDir) nor verifies invariants
// (Options.Invariants). With capture on, records spill to
// <TraceDir>/run<index>-<label>.trace; the file is flushed and closed
// after the scenario finishes, and its path lands in
// RunResult.TracePath. With invariants on, the same stream feeds an
// online invariant.Checker whose verdict lands in the result (a
// violation fails the run); both together tee the stream.
//
// The returned recorder is not synchronized: scenarios that spawn
// goroutines must record from a single one.
func (c *Ctx) Recorder() trace.Recorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recorderLocked()
}

// recorderLocked composes the run's record sink from the invariant
// checker and/or the spill ring, caching the result. Callers hold
// c.mu. A nil return means neither capture nor verification is on.
func (c *Ctx) recorderLocked() trace.Recorder {
	if c.rec != nil {
		return c.rec
	}
	ring := c.ringLocked()
	if c.opts != nil && c.opts.Invariants && c.checker == nil {
		c.checker = &invariant.Checker{}
	}
	switch {
	case c.checker != nil:
		var next trace.Recorder
		if ring != nil {
			next = ring
		}
		c.rec = c.checker.Tee(next)
	case ring != nil:
		c.rec = ring
	}
	return c.rec
}

// ringLocked lazily opens the spill file and ring. Callers hold c.mu.
// A nil return means capture is off or the open failed (traceErr set).
func (c *Ctx) ringLocked() *trace.Ring {
	if c.opts == nil || c.opts.TraceDir == "" {
		return nil
	}
	if c.traceRing == nil && c.traceErr == nil {
		path := filepath.Join(c.opts.TraceDir,
			fmt.Sprintf("run%04d-%s.trace", c.index, sanitizeLabel(c.spec.Label)))
		f, err := os.Create(path)
		if err != nil {
			c.traceErr = fmt.Errorf("runner: open trace file: %w", err)
			return nil
		}
		r := trace.NewRing(0)
		r.SpillTo(f)
		c.traceRing = r
		c.tracePath = path
	}
	return c.traceRing
}

// sanitizeLabel maps a run label onto the filename-safe alphabet
// [a-zA-Z0-9._-], bounded to 64 bytes, so labels like
// "fig9a/aps=14/trial=2" become stable file names.
func sanitizeLabel(s string) string {
	out := []byte(s)
	for i, b := range out {
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z',
			b >= '0' && b <= '9', b == '.', b == '-', b == '_':
		default:
			out[i] = '_'
		}
	}
	if len(out) > 64 {
		out = out[:64]
	}
	return string(out)
}

// closeTrace finalizes the run's trace capture: flush + close the spill
// file and publish path/counters into the result. A capture failure on
// an otherwise-successful run marks it failed — a campaign recorded for
// replay-diff must not silently produce torn streams.
func (c *Ctx) closeTrace(res *RunResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.traceErr != nil && res.Status == StatusOK {
		res.Status = StatusFailed
		res.Err = c.traceErr.Error()
	}
	if c.traceRing == nil {
		return
	}
	st := c.traceRing.Stats()
	res.TracePath = c.tracePath
	res.TraceRecords = int64(st.Recorded)
	res.TraceDropped = int64(st.Dropped)
	if err := c.traceRing.Close(); err != nil && res.Status == StatusOK {
		res.Status = StatusFailed
		res.Err = err.Error()
	}
}

// closeInvariants publishes the online checker's verdict: record
// count always, and on any violation the rule, the first violating
// record and the total — failing an otherwise-successful run. A
// regulatory violation must never hide behind a green campaign.
func (c *Ctx) closeInvariants(res *RunResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.checker == nil {
		return
	}
	res.InvariantRecords = int64(c.checker.Records())
	v := c.checker.First()
	if v == nil {
		return
	}
	res.InvariantViolations = c.checker.Total()
	res.InvariantRule = v.Rule
	res.InvariantIndex = v.Index
	res.InvariantRecord = v.Rec.String()
	if res.Status == StatusOK {
		res.Status = StatusFailed
		res.Err = c.checker.Err().Error()
	}
}

// AddSteps accounts coarse simulation work for scenarios that are not
// driven by a sim.Engine (the fluid epoch simulator, analytic models).
// Steps are added to the run's SimEvents count.
func (c *Ctx) AddSteps(n int64) {
	c.mu.Lock()
	c.steps += n
	c.mu.Unlock()
}

// collect sums telemetry from tracked engines. Called by the worker
// after Run returns (WallMS already set), so no engine is still being
// driven.
func (c *Ctx) collect(res *RunResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res.SimEvents = c.steps
	for _, e := range c.engines {
		st := e.Stats()
		res.SimEvents += int64(st.Fired)
		res.SimClockMS += float64(st.Clock) / float64(time.Millisecond)
		if st.MaxPending > res.SimMaxPending {
			res.SimMaxPending = st.MaxPending
		}
		res.SimEventSlots += st.EventSlots
	}
	if res.WallMS > 0 {
		res.SimRealtimeFactor = res.SimClockMS / res.WallMS
	}
}

// Progress is delivered to Options.OnProgress after every finished run.
type Progress struct {
	Campaign string
	// Done counts finished runs (ok, failed or canceled); Total is the
	// campaign size.
	Done, Total int
	Failed      int
	// Label is the run that just finished.
	Label   string
	Elapsed time.Duration
}

// Options tunes a campaign.
type Options struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// OnProgress, if set, is called after each run completes. Calls are
	// serialized; the callback must not block for long.
	OnProgress func(Progress)
	// TraceDir, when non-empty, turns on per-run flight recording:
	// every engine a run creates via Ctx.Engine (and whatever else the
	// scenario wires to Ctx.Recorder) spills a binary trace stream to
	// <TraceDir>/run<index>-<label>.trace. The directory must exist.
	TraceDir string
	// Invariants, when true, attaches an online regulatory verifier
	// (invariant.Checker) to every run's record stream — everything a
	// scenario emits through Ctx.Recorder or a Ctx.Engine flight
	// recorder is checked as it is written. A violation fails the run
	// and its details land in the RunResult (invariant_* JSON fields).
	// Works with or without TraceDir.
	Invariants bool
}

// Run executes the campaign and returns its report. It blocks until
// every claimed run has finished. The error cases — scenario failures,
// cancellation — are recorded per run in the report, never returned:
// a campaign always yields a complete, ordered account of its fleet.
func Run(ctx context.Context, name string, specs []Spec, opts Options) *Report {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}

	rep := &Report{
		Campaign: name,
		Workers:  workers,
		Started:  time.Now().UTC(),
		Runs:     make([]RunResult, len(specs)),
	}
	start := time.Now()

	var (
		mu     sync.Mutex // guards next, done, failed, OnProgress
		next   int
		done   int
		failed int
		wg     sync.WaitGroup
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(specs) {
			return -1
		}
		i := next
		next++
		return i
	}
	finish := func(i int) {
		mu.Lock()
		defer mu.Unlock() // held across the callback: calls are serialized, in Done order
		done++
		if rep.Runs[i].Status != StatusOK {
			failed++
		}
		p := Progress{
			Campaign: name,
			Done:     done,
			Total:    len(specs),
			Failed:   failed,
			Label:    rep.Runs[i].Label,
			Elapsed:  time.Since(start),
		}
		if opts.OnProgress != nil {
			opts.OnProgress(p)
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 {
					return
				}
				res := &rep.Runs[i]
				res.Index = i
				res.Label = specs[i].Label
				res.Seed = specs[i].Seed
				if ctx.Err() != nil {
					res.Status = StatusCanceled
					res.Err = ctx.Err().Error()
				} else {
					runOne(&specs[i], i, res, &opts)
				}
				finish(i)
			}
		}()
	}
	wg.Wait()

	rep.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	rep.finalize()
	return rep
}

// runOne executes a single spec with panic isolation and telemetry.
func runOne(s *Spec, i int, res *RunResult, opts *Options) {
	c := &Ctx{spec: s, index: i, opts: opts}
	t0 := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.Status = StatusFailed
				res.Err = fmt.Sprintf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		v, err := s.Run(c)
		if err != nil {
			res.Status = StatusFailed
			res.Err = err.Error()
			return
		}
		res.Status = StatusOK
		res.Value = v
	}()
	res.WallMS = float64(time.Since(t0)) / float64(time.Millisecond)
	c.collect(res)
	c.closeTrace(res)
	c.closeInvariants(res)
}
