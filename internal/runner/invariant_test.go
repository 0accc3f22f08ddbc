package runner

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cellfi/internal/invariant"
	"cellfi/internal/trace"
)

// invariantSpecs builds a two-run campaign: a clean scenario (budget
// then in-budget transmissions) and a violating one (a transmission
// past the vacate budget).
func invariantSpecs() []Spec {
	emit := func(c *Ctx, lastTX time.Duration) {
		rec := c.Recorder()
		if rec == nil {
			return
		}
		rec.Record(trace.Record{T: 0, AP: 1, Kind: trace.KindLeaseBudget, N: 3,
			Args: [trace.MaxArgs]int64{21, int64(5 * time.Minute), int64(time.Minute)}})
		for t := 10 * time.Second; t <= lastTX; t += 10 * time.Second {
			rec.Record(trace.Record{T: int64(t), AP: 1, Kind: trace.KindRadioTX, N: 1,
				Args: [trace.MaxArgs]int64{21}})
		}
	}
	return []Spec{
		{Label: "clean", Seed: 1, Run: func(c *Ctx) (any, error) {
			emit(c, time.Minute)
			return "ok", nil
		}},
		{Label: "violating", Seed: 2, Run: func(c *Ctx) (any, error) {
			emit(c, 2*time.Minute)
			return "ok", nil
		}},
	}
}

// TestInvariantsFailViolatingRun: with Options.Invariants on, the
// clean run passes, the violating run fails with the rule and first
// violating record in its telemetry — even without trace capture.
func TestInvariantsFailViolatingRun(t *testing.T) {
	rep := Run(context.Background(), "inv", invariantSpecs(), Options{Invariants: true})
	clean, bad := rep.Runs[0], rep.Runs[1]

	if clean.Status != StatusOK {
		t.Fatalf("clean run: %s (%s)", clean.Status, clean.Err)
	}
	if clean.InvariantRecords == 0 || clean.InvariantViolations != 0 {
		t.Fatalf("clean run checker state: %+v", clean)
	}

	if bad.Status != StatusFailed {
		t.Fatalf("violating run status = %s, want failed", bad.Status)
	}
	if bad.InvariantRule != invariant.RuleTxPastVacateBudget {
		t.Fatalf("rule = %q, want %q", bad.InvariantRule, invariant.RuleTxPastVacateBudget)
	}
	if bad.InvariantRecord == "" || bad.InvariantIndex == 0 || bad.InvariantViolations == 0 {
		t.Fatalf("violation details missing: %+v", bad)
	}
	if rep.Failed != 1 || rep.OK != 1 {
		t.Fatalf("report counts: ok=%d failed=%d", rep.OK, rep.Failed)
	}
}

// TestInvariantsOff: without the flag, the violating stream passes and
// no checker fields are populated.
func TestInvariantsOff(t *testing.T) {
	rep := Run(context.Background(), "inv-off", invariantSpecs(), Options{})
	for i := range rep.Runs {
		if rep.Runs[i].InvariantRecords != 0 || rep.Runs[i].InvariantRule != "" {
			t.Fatalf("run %d has checker fields without Invariants: %+v", i, rep.Runs[i])
		}
	}
}

// TestInvariantsTeeWithCapture: Invariants + TraceDir tee the stream —
// the violating run both fails verification and still spills a
// complete, decodable trace (the evidence file an audit replays).
func TestInvariantsTeeWithCapture(t *testing.T) {
	dir := t.TempDir()
	rep := Run(context.Background(), "inv-tee", invariantSpecs(),
		Options{Invariants: true, TraceDir: dir})
	bad := rep.Runs[1]
	if bad.Status != StatusFailed || bad.InvariantRule == "" {
		t.Fatalf("violating run not flagged: %+v", bad)
	}
	if bad.TracePath == "" {
		t.Fatal("no trace captured alongside verification")
	}
	data, err := os.ReadFile(filepath.Join(dir, filepath.Base(bad.TracePath)))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Decode(data)
	if err != nil {
		t.Fatalf("teed trace not decodable: %v", err)
	}
	if int64(len(recs)) != bad.InvariantRecords || int64(len(recs)) != bad.TraceRecords {
		t.Fatalf("stream fan-out mismatch: decoded=%d checker=%d ring=%d",
			len(recs), bad.InvariantRecords, bad.TraceRecords)
	}
	// The offline verdict matches the online one.
	offline := &invariant.Checker{}
	offline.Feed(recs)
	if v := offline.First(); v == nil || v.Rec.String() != bad.InvariantRecord {
		t.Fatalf("offline verify disagrees: %v vs %q", v, bad.InvariantRecord)
	}
}
