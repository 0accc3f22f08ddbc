package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cellfi/internal/shard"
)

// A run that drives shard clusters surfaces their telemetry: the widest
// cluster's shard count, summed windows and barrier stall, and per-shard
// utilization recomputed from the summed busy/wall nanoseconds.
func TestShardTelemetry(t *testing.T) {
	specs := []Spec{{
		Label: "sharded", Seed: 1,
		Run: func(c *Ctx) (any, error) {
			c.AddShardStats(shard.Stats{
				Shards:  2,
				Windows: 10,
				WallNS:  1_000_000,
				BusyNS:  []int64{600_000, 200_000},
				StallNS: []int64{100_000, 500_000},
			})
			c.AddShardStats(shard.Stats{
				Shards:  4,
				Windows: 6,
				WallNS:  1_000_000,
				BusyNS:  []int64{400_000, 400_000, 300_000, 100_000},
				StallNS: []int64{0, 0, 0, 400_000},
			})
			return "done", nil
		},
	}, {
		Label: "plain", Seed: 2,
		Run: func(c *Ctx) (any, error) { return "done", nil },
	}}
	rep := Run(context.Background(), "shard-telemetry", specs, Options{Workers: 1})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}

	r := rep.Runs[0]
	if r.Shards != 4 {
		t.Fatalf("Shards = %d, want 4 (widest cluster)", r.Shards)
	}
	if r.ShardWindows != 16 {
		t.Fatalf("ShardWindows = %d, want 16", r.ShardWindows)
	}
	if r.ShardBarrierStallMS != 1.0 {
		t.Fatalf("ShardBarrierStallMS = %v, want 1.0", r.ShardBarrierStallMS)
	}
	want := []float64{0.5, 0.3, 0.15, 0.05}
	if len(r.ShardUtilization) != len(want) {
		t.Fatalf("ShardUtilization = %v, want %v", r.ShardUtilization, want)
	}
	for i, u := range r.ShardUtilization {
		if u != want[i] {
			t.Fatalf("ShardUtilization[%d] = %v, want %v", i, u, want[i])
		}
	}
	if plain := rep.Runs[1]; plain.Shards != 0 || plain.ShardUtilization != nil {
		t.Fatalf("engine-less run reports shard telemetry: %+v", plain)
	}

	// The serialized report pins the machine (num_cpu / go_max_procs —
	// speedups are not comparable across core counts without them) and
	// carries the sharded run's fields while omitting them for the plain
	// run.
	if rep.NumCPU != runtime.NumCPU() || rep.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Fatalf("NumCPU/GoMaxProcs = %d/%d, want %d/%d",
			rep.NumCPU, rep.GoMaxProcs, runtime.NumCPU(), runtime.GOMAXPROCS(0))
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
		t.Fatal(err)
	}
	for _, key := range []string{"num_cpu", "go_max_procs"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
	runs := decoded["runs"].([]any)
	sharded := runs[0].(map[string]any)
	for _, key := range []string{"shards", "shard_windows", "shard_utilization",
		"shard_barrier_stall_ms"} {
		if _, ok := sharded[key]; !ok {
			t.Errorf("sharded run JSON missing %q", key)
		}
	}
	plain := runs[1].(map[string]any)
	if _, ok := plain["shards"]; ok {
		t.Errorf("plain run JSON should omit \"shards\"")
	}
}
