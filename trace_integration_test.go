package cellfi_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"cellfi/internal/experiments"
	"cellfi/internal/geo"
	"cellfi/internal/lte"
	"cellfi/internal/netsim"
	"cellfi/internal/runner"
	"cellfi/internal/sim"
	"cellfi/internal/trace"
)

// traceGrid is a two-trial campaign over the fluid netsim: each trial
// generates a topology from its seed, runs epochs of CellFi interference
// management, and flight-records the controllers' IM decisions through
// the runner's per-run capture.
func traceGrid(seeds experiments.Seeds) experiments.Grid {
	return experiments.Grid{
		Arms:    []experiments.Arm{experiments.SchemeArm(netsim.SchemeCellFi, nil)},
		APs:     []int{6},
		Clients: []int{3},
		Trials:  2,
		Epochs:  8,
		Seeds:   seeds,
	}
}

// TestTraceReplayDiff is the acceptance check for the flight recorder:
// two runner shards with the same seed capture byte-identical streams
// (trace.Diff reports identical), and different seeds produce a
// localized first divergence carrying timestamp, AP and kind.
func TestTraceReplayDiff(t *testing.T) {
	dir := t.TempDir()
	_, rep, err := traceGrid(experiments.SameSeeds(17, 0, 0, 0)).Run(context.Background(),
		runner.Options{Workers: 2, TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var streams [][]byte
	for _, r := range rep.Runs {
		if r.TracePath == "" || r.TraceRecords == 0 {
			t.Fatalf("run %d captured nothing: %+v", r.Index, r)
		}
		raw, err := os.ReadFile(r.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, raw)
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Fatal("same-seed shards must record byte-identical traces")
	}
	d := trace.Diff(streams[0], streams[1])
	if !d.Identical {
		t.Fatalf("Diff on same-seed shards: %s", d)
	}

	_, rep2, err := traceGrid(experiments.SameSeeds(40, 1, 0, 0)).Run(context.Background(),
		runner.Options{Workers: 2, TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rawA, err := os.ReadFile(rep2.Runs[0].TracePath)
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := os.ReadFile(rep2.Runs[1].TracePath)
	if err != nil {
		t.Fatal(err)
	}
	d = trace.Diff(rawA, rawB)
	if d.Identical {
		t.Fatal("different-seed shards recorded identical traces")
	}
	// The divergence report must localize the first differing record
	// with its timestamp, AP and kind (unless one stream is a strict
	// prefix of the other, which topology-level divergence rules out
	// here).
	if d.A == nil || d.B == nil {
		t.Fatalf("divergence not localized to a record pair: %+v", d)
	}
	if d.A.Kind == 0 || d.B.Kind == 0 {
		t.Fatalf("diverging records missing kinds: %s", d)
	}
	s := d.String()
	if s == "" {
		t.Fatal("empty divergence rendering")
	}
	t.Logf("divergence: %s", s)
}

// TestCellSimTraceByteIdentity pins same-seed byte-identity at subframe
// granularity through the allocation-free scheduler path: two shards
// run an identical proportional-fair cell (interferer, fading, HARQ,
// CQI noise draws) and must flight-record byte-identical streams with
// grant and CQI records present. This is the determinism contract the
// dense AllocScratch iteration order upholds — the map-based allocation
// it replaced left grant emission order to map iteration.
func TestCellSimTraceByteIdentity(t *testing.T) {
	dir := t.TempDir()
	specs := make([]runner.Spec, 2)
	for i := range specs {
		specs[i] = runner.Spec{
			Label: fmt.Sprintf("cell=%d", i),
			Seed:  23,
			Run: func(c *runner.Ctx) (any, error) {
				eng := sim.NewEngine(c.Seed())
				eng.SetRecorder(c.Recorder())
				env := lte.NewEnvironment(c.Seed())
				cell := &lte.Cell{
					ID: 1, TxPowerDBm: 30,
					BW: lte.BW5MHz, TDD: lte.TDDConfig4, Activity: lte.FullBuffer,
				}
				interferer := &lte.Cell{
					ID: 2, Pos: geo.Point{X: 700}, TxPowerDBm: 30,
					BW: lte.BW5MHz, TDD: lte.TDDConfig4, Activity: lte.FullBuffer,
				}
				clients := []*lte.Client{
					{ID: 100, Pos: geo.Point{X: 150}, TxPowerDBm: 20},
					{ID: 101, Pos: geo.Point{X: 600}, TxPowerDBm: 20},
				}
				cs := lte.NewCellSim(eng, env, cell, clients)
				cs.Sched = &lte.ProportionalFair{}
				cs.Interferers = []*lte.Cell{interferer}
				cs.Start()
				cs.Backlog(100, 1<<30)
				cs.Backlog(101, 1<<30)
				eng.Run(sim.Time(300 * time.Millisecond))
				c.AddSteps(300)
				return nil, nil
			},
		}
	}
	rep := runner.Run(context.Background(), "cellsim-trace", specs,
		runner.Options{Workers: 2, TraceDir: dir})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	var streams [][]byte
	for _, r := range rep.Runs {
		raw, err := os.ReadFile(r.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, raw)
	}
	if !bytes.Equal(streams[0], streams[1]) {
		d := trace.Diff(streams[0], streams[1])
		t.Fatalf("same-seed cell runs diverged: %s", d)
	}
	recs, err := trace.Decode(streams[0])
	if err != nil {
		t.Fatal(err)
	}
	var grants, cqis int
	for _, r := range recs {
		switch r.Kind {
		case trace.KindLTEGrant:
			grants++
		case trace.KindLTECQI:
			cqis++
		}
	}
	if grants == 0 || cqis == 0 {
		t.Fatalf("trace missing LTE records: %d grants, %d CQI reports", grants, cqis)
	}
}
