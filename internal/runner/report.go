package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Status classifies how a run ended.
type Status string

const (
	// StatusOK: the scenario returned a value.
	StatusOK Status = "ok"
	// StatusFailed: the scenario returned an error or panicked.
	StatusFailed Status = "failed"
	// StatusCanceled: the campaign context was cancelled before the
	// run was claimed.
	StatusCanceled Status = "canceled"
)

// RunResult is the telemetry record of one scenario run.
type RunResult struct {
	Index  int    `json:"index"`
	Label  string `json:"label"`
	Seed   int64  `json:"seed"`
	Status Status `json:"status"`
	Err    string `json:"error,omitempty"`
	// WallMS is the run's wall-clock time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// SimEvents counts discrete events fired by the run's tracked
	// sim.Engines plus coarse steps recorded via Ctx.AddSteps.
	SimEvents int64 `json:"sim_events"`
	// SimClockMS is the total virtual time advanced by tracked
	// engines, in milliseconds.
	SimClockMS float64 `json:"sim_clock_ms"`
	// SimRealtimeFactor is SimClockMS / WallMS — how much faster than
	// the wall clock this run simulated. > 1 means faster than real
	// time; 0 when the run advanced no tracked virtual time.
	SimRealtimeFactor float64 `json:"sim_realtime_factor,omitempty"`
	// SimMaxPending is the deepest any tracked engine's event heap
	// got — the run's peak event concurrency.
	SimMaxPending int `json:"sim_max_pending,omitempty"`
	// SimEventSlots sums the event slots tracked engines allocated.
	// Slots recycle through a free list, so this is the engines'
	// steady-state event memory, not the event count; a run whose
	// slots stay near its pending depth schedules allocation-free.
	SimEventSlots int `json:"sim_event_slots,omitempty"`
	// TracePath is the run's flight-recorder stream on disk, present
	// only when the campaign captured traces (Options.TraceDir).
	TracePath string `json:"trace_path,omitempty"`
	// TraceRecords / TraceDropped count records captured and records
	// lost (spill-write failures) for the run's trace.
	TraceRecords int64 `json:"trace_records,omitempty"`
	TraceDropped int64 `json:"trace_dropped,omitempty"`
	// Value is the scenario's return value (not serialized).
	Value any `json:"-"`
}

// Report is the aggregate account of one campaign.
type Report struct {
	Campaign string    `json:"campaign"`
	Workers  int       `json:"workers"`
	Started  time.Time `json:"started"`
	// WallMS is the whole campaign's wall-clock time.
	WallMS   float64 `json:"wall_ms"`
	OK       int     `json:"ok"`
	Failed   int     `json:"failed"`
	Canceled int     `json:"canceled"`
	// TotalSimEvents sums SimEvents over all runs; EventsPerSec is
	// that total divided by campaign wall time — the fleet's
	// simulation throughput.
	TotalSimEvents int64   `json:"total_sim_events"`
	EventsPerSec   float64 `json:"sim_events_per_sec"`
	// SimRealtimeFactor is total virtual time over campaign wall time.
	// With parallel workers this measures fleet-level speedup (it can
	// exceed any single run's factor).
	SimRealtimeFactor float64 `json:"sim_realtime_factor,omitempty"`
	// PeakRSSMB is the process's peak resident set in MiB at report
	// finalization (ru_maxrss on Linux, the Go runtime's residency
	// estimate elsewhere) — the scale headroom signal for fleet sizing.
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
	// NumCPU / GoMaxProcs pin the machine the campaign ran on.
	// Throughput and speedup numbers are only comparable between
	// reports taken at the same core count.
	NumCPU     int         `json:"num_cpu"`
	GoMaxProcs int         `json:"go_max_procs"`
	Runs       []RunResult `json:"runs"`
}

// finalize computes the aggregate counters from Runs.
func (r *Report) finalize() {
	r.OK, r.Failed, r.Canceled, r.TotalSimEvents = 0, 0, 0, 0
	var simClockMS float64
	for i := range r.Runs {
		switch r.Runs[i].Status {
		case StatusOK:
			r.OK++
		case StatusCanceled:
			r.Canceled++
		default:
			r.Failed++
		}
		r.TotalSimEvents += r.Runs[i].SimEvents
		simClockMS += r.Runs[i].SimClockMS
	}
	if r.WallMS > 0 {
		r.EventsPerSec = float64(r.TotalSimEvents) / (r.WallMS / 1000)
		r.SimRealtimeFactor = simClockMS / r.WallMS
	}
	r.PeakRSSMB = peakRSSMB()
	r.NumCPU = runtime.NumCPU()
	r.GoMaxProcs = runtime.GOMAXPROCS(0)
}

// Err returns an error describing the first unsuccessful run, or nil
// if every run completed.
func (r *Report) Err() error {
	for i := range r.Runs {
		if r.Runs[i].Status != StatusOK {
			return fmt.Errorf("run %d (%s) %s: %s",
				r.Runs[i].Index, r.Runs[i].Label, r.Runs[i].Status, r.Runs[i].Err)
		}
	}
	return nil
}

// Values returns every run's value in spec order, asserted to T.
// It fails if any run did not succeed — callers that tolerate partial
// campaigns should walk Runs directly.
func Values[T any](r *Report) ([]T, error) {
	if err := r.Err(); err != nil {
		return nil, err
	}
	out := make([]T, len(r.Runs))
	for i := range r.Runs {
		v, ok := r.Runs[i].Value.(T)
		if !ok {
			return nil, fmt.Errorf("run %d (%s): value is %T, not %T",
				i, r.Runs[i].Label, r.Runs[i].Value, *new(T))
		}
		out[i] = v
	}
	return out, nil
}

// WriteJSON serializes the report (indented) to path.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: encode report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Merge combines several campaign reports into one named campaign —
// the shape `cellfi experiments` writes when a session spans many fleets.
// Wall time is summed (campaigns ran back to back), workers is the
// maximum, and runs are concatenated with indices rebased.
func Merge(name string, reps ...*Report) (*Report, error) {
	if len(reps) == 0 {
		return nil, errors.New("runner: merge of zero reports")
	}
	out := &Report{Campaign: name, Started: reps[0].Started}
	for _, rp := range reps {
		if rp.Workers > out.Workers {
			out.Workers = rp.Workers
		}
		if rp.Started.Before(out.Started) {
			out.Started = rp.Started
		}
		out.WallMS += rp.WallMS
		for _, run := range rp.Runs {
			run.Index = len(out.Runs)
			out.Runs = append(out.Runs, run)
		}
	}
	out.finalize()
	return out, nil
}
