package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cellfi/internal/trace"
)

// scenarioSpecs builds a campaign of n deterministic scenarios: each
// drives a sim.Engine chain seeded from its spec seed and reduces its
// RNG stream to a float64. The reduction is sensitive to both the seed
// and the number of events fired, so any cross-run interference or
// scheduling dependence shows up as a changed value.
func scenarioSpecs(n int) []Spec {
	specs := make([]Spec, n)
	for i := 0; i < n; i++ {
		specs[i] = Spec{
			Label: fmt.Sprintf("scenario/%02d", i),
			Seed:  int64(1000 + i*7919),
			Run: func(c *Ctx) (any, error) {
				eng := c.Engine(c.Seed())
				rng := eng.NewStream("load")
				sum := 0.0
				var tick func()
				fires := 0
				tick = func() {
					sum += rng.Float64() * float64(eng.Now().Microseconds()+1)
					fires++
					if fires < 200+c.Index()*13 {
						eng.After(time.Duration(1+rng.Intn(50))*time.Microsecond, tick)
					}
				}
				eng.After(0, tick)
				eng.RunAll()
				return sum, nil
			},
		}
	}
	return specs
}

// aggregate reduces a campaign's values to bytes, mimicking how the
// experiments package renders tables from ordered trial results.
func aggregate(t *testing.T, rep *Report) []byte {
	t.Helper()
	vals, err := Values[float64](rep)
	if err != nil {
		t.Fatalf("values: %v", err)
	}
	var buf bytes.Buffer
	for i, v := range vals {
		fmt.Fprintf(&buf, "%d %.17g\n", i, v)
	}
	return buf.Bytes()
}

// TestDeterministicAcrossWorkerCounts is the campaign determinism
// contract: a >= 32-scenario fleet aggregated with 1 worker and with 8
// workers must produce byte-identical results.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	specs := scenarioSpecs(32)
	rep1 := Run(context.Background(), "det", specs, Options{Workers: 1})
	rep8 := Run(context.Background(), "det", specs, Options{Workers: 8})
	if rep1.Workers != 1 || rep8.Workers != 8 {
		t.Fatalf("worker counts %d/%d, want 1/8", rep1.Workers, rep8.Workers)
	}
	b1, b8 := aggregate(t, rep1), aggregate(t, rep8)
	if !bytes.Equal(b1, b8) {
		t.Fatalf("aggregated results differ between 1 and 8 workers:\n%s\nvs\n%s", b1, b8)
	}
	// Run order metadata must also be stable.
	for i := range rep8.Runs {
		if rep8.Runs[i].Index != i || rep8.Runs[i].Label != specs[i].Label ||
			rep8.Runs[i].Seed != specs[i].Seed {
			t.Fatalf("run %d metadata out of order: %+v", i, rep8.Runs[i])
		}
	}
}

// TestPanicIsolation injects a panicking scenario into the middle of a
// fleet and requires the campaign to finish every other run.
func TestPanicIsolation(t *testing.T) {
	specs := scenarioSpecs(9)
	specs[4].Run = func(c *Ctx) (any, error) { panic("injected scenario crash") }
	rep := Run(context.Background(), "panic", specs, Options{Workers: 4})
	if rep.OK != 8 || rep.Failed != 1 {
		t.Fatalf("ok=%d failed=%d, want 8/1", rep.OK, rep.Failed)
	}
	r := rep.Runs[4]
	if r.Status != StatusFailed {
		t.Fatalf("run 4 status %q, want failed", r.Status)
	}
	if want := "injected scenario crash"; !bytes.Contains([]byte(r.Err), []byte(want)) {
		t.Fatalf("run 4 error %q does not mention %q", r.Err, want)
	}
	if !bytes.Contains([]byte(r.Err), []byte("goroutine")) {
		t.Fatalf("panic record lacks a stack trace: %q", r.Err)
	}
	if err := rep.Err(); err == nil {
		t.Fatal("Err() = nil for a campaign with a failed run")
	}
	if _, err := Values[float64](rep); err == nil {
		t.Fatal("Values must refuse a campaign with failures")
	}
	// The healthy runs kept their values.
	for i, run := range rep.Runs {
		if i == 4 {
			continue
		}
		if run.Status != StatusOK || run.Value == nil {
			t.Fatalf("run %d lost its result: %+v", i, run)
		}
	}
}

// TestErrorsAreFailures: a returned error marks the run failed too.
func TestErrorsAreFailures(t *testing.T) {
	specs := scenarioSpecs(3)
	sentinel := errors.New("scenario declined")
	specs[1].Run = func(c *Ctx) (any, error) { return nil, sentinel }
	rep := Run(context.Background(), "err", specs, Options{Workers: 2})
	if rep.Failed != 1 || rep.Runs[1].Err != sentinel.Error() {
		t.Fatalf("error not recorded: %+v", rep.Runs[1])
	}
}

// TestCancellation: cancelling mid-campaign stops new claims; the
// report still accounts for every spec.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	specs := make([]Spec, 16)
	for i := range specs {
		specs[i] = Spec{
			Label: fmt.Sprintf("c/%d", i),
			Seed:  int64(i),
			Run: func(c *Ctx) (any, error) {
				once.Do(cancel)
				return 0.0, nil
			},
		}
	}
	rep := Run(ctx, "cancel", specs, Options{Workers: 2})
	if got := rep.OK + rep.Failed + rep.Canceled; got != len(specs) {
		t.Fatalf("accounted %d of %d runs", got, len(specs))
	}
	if rep.Canceled == 0 {
		t.Fatal("no runs recorded as canceled")
	}
	for _, r := range rep.Runs {
		if r.Status == StatusCanceled && r.Err == "" {
			t.Fatalf("canceled run %d lacks a reason", r.Index)
		}
	}
}

// TestTelemetry checks the per-run counters: wall time present, engine
// events and virtual clock pulled via Ctx, AddSteps accounted, and the
// JSON report round-trips with the documented schema.
func TestTelemetry(t *testing.T) {
	specs := []Spec{
		{
			Label: "engine", Seed: 7,
			Run: func(c *Ctx) (any, error) {
				eng := c.Engine(c.Seed())
				for i := 0; i < 100; i++ {
					eng.After(time.Duration(i)*time.Millisecond, func() {})
				}
				eng.RunAll()
				return "done", nil
			},
		},
		{
			Label: "fluid", Seed: 8,
			Run: func(c *Ctx) (any, error) {
				c.AddSteps(42)
				return "done", nil
			},
		},
	}
	rep := Run(context.Background(), "telemetry", specs, Options{Workers: 2})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].SimEvents != 100 {
		t.Fatalf("engine run SimEvents = %d, want 100", rep.Runs[0].SimEvents)
	}
	if rep.Runs[0].SimClockMS != 99 {
		t.Fatalf("engine run SimClockMS = %v, want 99", rep.Runs[0].SimClockMS)
	}
	// All 100 events are queued before RunAll drains them, so the
	// engine's peak queue depth and slot high-water mark are both 100.
	if rep.Runs[0].SimMaxPending != 100 {
		t.Fatalf("engine run SimMaxPending = %d, want 100", rep.Runs[0].SimMaxPending)
	}
	if rep.Runs[0].SimEventSlots != 100 {
		t.Fatalf("engine run SimEventSlots = %d, want 100", rep.Runs[0].SimEventSlots)
	}
	if rep.Runs[1].SimEvents != 42 {
		t.Fatalf("AddSteps run SimEvents = %d, want 42", rep.Runs[1].SimEvents)
	}
	if rep.Runs[1].SimMaxPending != 0 || rep.Runs[1].SimEventSlots != 0 {
		t.Fatalf("engine-less run reports queue depth %d/%d, want 0/0",
			rep.Runs[1].SimMaxPending, rep.Runs[1].SimEventSlots)
	}
	if rep.TotalSimEvents != 142 {
		t.Fatalf("TotalSimEvents = %d, want 142", rep.TotalSimEvents)
	}
	for _, r := range rep.Runs {
		if r.WallMS < 0 {
			t.Fatalf("run %d has negative wall time", r.Index)
		}
	}

	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{"campaign", "workers", "wall_ms", "ok",
		"total_sim_events", "sim_events_per_sec", "runs"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
	runs := decoded["runs"].([]any)
	first := runs[0].(map[string]any)
	for _, key := range []string{"index", "label", "seed", "status", "wall_ms", "sim_events",
		"sim_max_pending", "sim_event_slots"} {
		if _, ok := first[key]; !ok {
			t.Errorf("run JSON missing %q", key)
		}
	}
}

// TestProgressCallback: every run reports exactly once, Done reaches
// Total, failures are counted.
func TestProgressCallback(t *testing.T) {
	specs := scenarioSpecs(10)
	specs[3].Run = func(c *Ctx) (any, error) { return nil, errors.New("x") }
	var mu sync.Mutex
	var seen []Progress
	rep := Run(context.Background(), "progress", specs, Options{
		Workers: 3,
		OnProgress: func(p Progress) {
			mu.Lock()
			seen = append(seen, p)
			mu.Unlock()
		},
	})
	if len(seen) != len(specs) {
		t.Fatalf("progress fired %d times, want %d", len(seen), len(specs))
	}
	last := seen[len(seen)-1]
	if last.Done != len(specs) || last.Total != len(specs) || last.Failed != 1 {
		t.Fatalf("final progress %+v", last)
	}
	if rep.OK != 9 {
		t.Fatalf("ok=%d", rep.OK)
	}
}

// TestMerge concatenates campaign reports with rebased indices.
func TestMerge(t *testing.T) {
	a := Run(context.Background(), "a", scenarioSpecs(3), Options{Workers: 2})
	b := Run(context.Background(), "b", scenarioSpecs(2), Options{Workers: 1})
	m, err := Merge("session", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 5 || m.OK != 5 || m.Workers != 2 {
		t.Fatalf("merge: %d runs, ok=%d, workers=%d", len(m.Runs), m.OK, m.Workers)
	}
	for i, r := range m.Runs {
		if r.Index != i {
			t.Fatalf("run %d has index %d after merge", i, r.Index)
		}
	}
	if m.WallMS < a.WallMS || m.WallMS < b.WallMS {
		t.Fatal("merged wall time lost a component")
	}
	if _, err := Merge("empty"); err == nil {
		t.Fatal("merge of zero reports must fail")
	}
}

// TestWorkerDefaults: zero workers resolves to GOMAXPROCS and is
// capped by fleet size.
func TestWorkerDefaults(t *testing.T) {
	rep := Run(context.Background(), "defaults", scenarioSpecs(2), Options{})
	if rep.Workers < 1 || rep.Workers > 2 {
		t.Fatalf("workers = %d, want within [1,2]", rep.Workers)
	}
}

// TestSharedStateWouldBeCaught documents why specs must not share
// RNGs: two specs drawing from one rand.Rand produce worker-count-
// dependent values. The runner cannot forbid it, but the determinism
// test pattern (compare aggregates across worker counts) catches it —
// here we only verify the safe pattern composes under -race: many
// specs, each with seed-derived randomness, running concurrently.
func TestSharedStateWouldBeCaught(t *testing.T) {
	specs := make([]Spec, 24)
	for i := range specs {
		seed := int64(i) * 31
		specs[i] = Spec{
			Label: fmt.Sprintf("iso/%d", i),
			Seed:  seed,
			Run: func(c *Ctx) (any, error) {
				rng := rand.New(rand.NewSource(c.Seed()))
				total := 0.0
				for j := 0; j < 1000; j++ {
					total += rng.Float64()
				}
				return total, nil
			},
		}
	}
	r1 := Run(context.Background(), "iso", specs, Options{Workers: 1})
	r8 := Run(context.Background(), "iso", specs, Options{Workers: 8})
	if !bytes.Equal(aggregate(t, r1), aggregate(t, r8)) {
		t.Fatal("seed-derived randomness must be scheduling independent")
	}
}

// traceSpecs builds a campaign whose scenarios drive a traced engine;
// with identical seeds the captured streams must be byte-identical.
func traceSpecs(seedOf func(i int) int64, n int) []Spec {
	specs := make([]Spec, n)
	for i := 0; i < n; i++ {
		specs[i] = Spec{
			Label: fmt.Sprintf("shard/%d", i),
			Seed:  seedOf(i),
			Run: func(c *Ctx) (any, error) {
				eng := c.Engine(c.Seed())
				rng := rand.New(rand.NewSource(c.Seed()))
				var tick func()
				n := 0
				tick = func() {
					n++
					if n < 200 {
						eng.After(time.Duration(1+rng.Intn(50))*time.Millisecond, tick)
					}
				}
				eng.After(time.Millisecond, tick)
				eng.RunAll()
				return n, nil
			},
		}
	}
	return specs
}

// TestTraceCapture: TraceDir produces one decodable stream per run,
// publishes its path and counters in the telemetry, and same-seed runs
// capture byte-identical streams while different seeds diverge.
func TestTraceCapture(t *testing.T) {
	dir := t.TempDir()
	rep := Run(context.Background(), "traced",
		traceSpecs(func(i int) int64 { return 42 }, 2), // identical seeds
		Options{Workers: 2, TraceDir: dir})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	var raws [][]byte
	for _, r := range rep.Runs {
		if r.TracePath == "" {
			t.Fatalf("run %d: no trace path in telemetry", r.Index)
		}
		if r.TraceRecords == 0 || r.TraceDropped != 0 {
			t.Fatalf("run %d: records=%d dropped=%d", r.Index, r.TraceRecords, r.TraceDropped)
		}
		recs, err := trace.ReadFile(r.TracePath)
		if err != nil {
			t.Fatalf("run %d: decode %s: %v", r.Index, r.TracePath, err)
		}
		if int64(len(recs)) != r.TraceRecords {
			t.Fatalf("run %d: decoded %d records, telemetry says %d",
				r.Index, len(recs), r.TraceRecords)
		}
		raw, err := os.ReadFile(r.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	if !bytes.Equal(raws[0], raws[1]) {
		t.Fatal("same-seed shards must capture byte-identical traces")
	}
	d := trace.Diff(raws[0], raws[1])
	if !d.Identical {
		t.Fatalf("Diff on same-seed shards: %s", d.String())
	}

	// Different seeds must diverge, and Diff must localize it.
	rep2 := Run(context.Background(), "traced2",
		traceSpecs(func(i int) int64 { return int64(100 + i) }, 2),
		Options{Workers: 1, TraceDir: dir})
	if err := rep2.Err(); err != nil {
		t.Fatal(err)
	}
	rawA, _ := os.ReadFile(rep2.Runs[0].TracePath)
	rawB, _ := os.ReadFile(rep2.Runs[1].TracePath)
	d = trace.Diff(rawA, rawB)
	if d.Identical {
		t.Fatal("different-seed shards produced identical traces")
	}
	if d.A == nil && d.B == nil && d.CountA == d.CountB {
		t.Fatalf("divergence not localized: %+v", d)
	}
}

// TestTraceDirOff: without TraceDir, Recorder returns untyped nil and
// results carry no trace fields.
func TestTraceDirOff(t *testing.T) {
	specs := []Spec{{Label: "plain", Seed: 1, Run: func(c *Ctx) (any, error) {
		if r := c.Recorder(); r != nil {
			return nil, fmt.Errorf("Recorder() = %v, want nil", r)
		}
		return nil, nil
	}}}
	rep := Run(context.Background(), "off", specs, Options{})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].TracePath != "" || rep.Runs[0].TraceRecords != 0 {
		t.Fatalf("trace telemetry present with capture off: %+v", rep.Runs[0])
	}
}

// TestTraceOpenFailure: an unopenable trace file fails the run rather
// than silently dropping the capture.
func TestTraceOpenFailure(t *testing.T) {
	specs := []Spec{{Label: "open-fail", Seed: 1, Run: func(c *Ctx) (any, error) {
		c.Recorder() // trigger the open
		return nil, nil
	}}}
	rep := Run(context.Background(), "openfail", specs,
		Options{TraceDir: filepath.Join(t.TempDir(), "does", "not", "exist")})
	if rep.Runs[0].Status != StatusFailed {
		t.Fatalf("status = %s, want failed", rep.Runs[0].Status)
	}
}

// TestSanitizeLabel pins the filename mapping.
func TestSanitizeLabel(t *testing.T) {
	got := sanitizeLabel("fig9a/aps=14 trial:2")
	if got != "fig9a_aps_14_trial_2" {
		t.Fatalf("sanitizeLabel = %q", got)
	}
}

// Realtime telemetry: a run that advances virtual time on a tracked
// engine reports sim_realtime_factor, and the campaign aggregates it
// plus the peak-RSS estimate.
func TestRealtimeFactorTelemetry(t *testing.T) {
	specs := []Spec{
		{
			Label: "engine-driven",
			Seed:  1,
			Run: func(c *Ctx) (any, error) {
				eng := c.Engine(c.Seed())
				eng.After(2*time.Second, func() {})
				eng.RunAll()
				return nil, nil
			},
		},
	}
	rep := Run(context.Background(), "realtime", specs, Options{Workers: 1})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		if r.SimClockMS <= 0 {
			t.Fatalf("run %q: sim_clock_ms %v, want > 0", r.Label, r.SimClockMS)
		}
		// The scenario does ~zero real work over seconds of virtual
		// time, so it must be far faster than real time.
		if r.SimRealtimeFactor <= 1 {
			t.Fatalf("run %q: sim_realtime_factor %v, want > 1", r.Label, r.SimRealtimeFactor)
		}
	}
	if rep.SimRealtimeFactor <= 1 {
		t.Fatalf("campaign sim_realtime_factor %v, want > 1", rep.SimRealtimeFactor)
	}
	if rss := peakRSSMB(); rss > 0 && rep.PeakRSSMB <= 0 {
		t.Fatalf("peak_rss_mb %v despite rusage reporting %v", rep.PeakRSSMB, rss)
	}

	// The fields must survive the JSON round trip fleet tooling reads.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["sim_realtime_factor"]; !ok {
		t.Fatal("report JSON lacks sim_realtime_factor")
	}
	if rep.PeakRSSMB > 0 {
		if _, ok := decoded["peak_rss_mb"]; !ok {
			t.Fatal("report JSON lacks peak_rss_mb")
		}
	}
}
