package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cellfi/internal/runner"
)

// render flattens a Result to a canonical string: every table cell,
// note, and raw series point. Timing-free experiments must render
// byte-identically at any worker count.
func render(r Result) string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	for _, t := range r.Tables {
		b.WriteString(t.String() + "\n")
	}
	for _, n := range r.Notes {
		b.WriteString(n + "\n")
	}
	for _, s := range r.Series {
		b.WriteString(s.Name + "\n")
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%.17g\t%.17g\n", p[0], p[1])
		}
	}
	return b.String()
}

// TestExperimentsDeterministicAcrossWorkerCounts runs a cross-section
// of experiments serially and on an 8-worker pool and requires
// byte-identical output: three quick ones and full-mode lambda, whose
// 5 arms x 3 trials are pooled in trial order however the legs finish.
// prach is excluded only because its complexity table contains
// wall-clock timings.
func TestExperimentsDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment fleets are slow")
	}
	defer SetWorkers(0)
	for _, tc := range []struct {
		id    string
		quick bool
	}{{"theorem1", true}, {"sensing", true}, {"fig2", true}, {"lambda", false}} {
		run, ok := Get(tc.id)
		if !ok {
			t.Fatalf("experiment %q not registered", tc.id)
		}
		SetWorkers(1)
		serial := render(run(42, tc.quick))
		SetWorkers(8)
		parallel := render(run(42, tc.quick))
		if serial != parallel {
			t.Errorf("%s: output differs between workers=1 and workers=8\n--- serial ---\n%s\n--- parallel ---\n%s",
				tc.id, serial, parallel)
		}
	}
}

// TestGrid checks the one fan-out: results land at [arm][trial] at any
// worker count, every arm of a trial runs on seedOf(trial), and legs
// are labelled campaign/arm/trial=N.
func TestGrid(t *testing.T) {
	defer SetWorkers(0)
	arms := []string{"a", "b", "c"}
	const trials = 4
	for _, workers := range []int{1, 8} {
		SetWorkers(workers)
		DrainReports()
		got := grid("g", arms, trials,
			func(tr int) int64 { return 100 + int64(tr)*7 },
			func(c *runner.Ctx, ai, tr int) [3]int64 {
				// Later legs finish first on a wide pool.
				time.Sleep(time.Duration(len(arms)*trials-ai*trials-tr) * time.Millisecond)
				return [3]int64{int64(ai), int64(tr), c.Seed()}
			})
		if len(got) != len(arms) {
			t.Fatalf("workers=%d: %d arms, want %d", workers, len(got), len(arms))
		}
		for ai := range arms {
			if len(got[ai]) != trials {
				t.Fatalf("workers=%d: arm %d has %d trials, want %d", workers, ai, len(got[ai]), trials)
			}
			for tr, v := range got[ai] {
				if want := [3]int64{int64(ai), int64(tr), 100 + int64(tr)*7}; v != want {
					t.Errorf("workers=%d: results[%d][%d] = %v, want %v", workers, ai, tr, v, want)
				}
			}
		}
		reps := DrainReports()
		if len(reps) != 1 || len(reps[0].Runs) != len(arms)*trials {
			t.Fatalf("workers=%d: want one report of %d runs, got %+v", workers, len(arms)*trials, reps)
		}
		for i, r := range reps[0].Runs {
			if want := fmt.Sprintf("g/%s/trial=%d", arms[i/trials], i%trials); r.Label != want {
				t.Errorf("workers=%d: run %d labelled %q, want %q", workers, i, r.Label, want)
			}
		}
	}
}

// TestFleetReportsAccumulate checks that experiment campaigns leave
// telemetry behind for `cellfi experiments -telemetry` to drain and merge,
// and only telemetry: a kept report must not pin the legs' results.
func TestFleetReportsAccumulate(t *testing.T) {
	DrainReports() // discard campaigns from other tests
	run, ok := Get("theorem1")
	if !ok {
		t.Fatal("theorem1 not registered")
	}
	run(7, true)
	reps := DrainReports()
	if len(reps) == 0 {
		t.Fatal("no campaign reports recorded")
	}
	var events int64
	for _, rp := range reps {
		events += rp.TotalSimEvents
		for _, r := range rp.Runs {
			if r.Value != nil {
				t.Errorf("drained report still holds %s's result (%T)", r.Label, r.Value)
			}
			if r.Label == "" || r.SimEvents == 0 {
				t.Errorf("drained run lost its telemetry: %+v", r)
			}
		}
	}
	if events == 0 {
		t.Error("campaigns recorded zero sim events (AddSteps/Engine tracking broken)")
	}
	if _, err := runner.Merge("test", reps...); err != nil {
		t.Fatalf("merging campaign reports: %v", err)
	}
}
