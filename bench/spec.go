package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The end-to-end metrics every workload reports (with -trace 0). They
// must stay in step with BENCHMARK.json; TestWorkloadsScaled enforces
// it. The four timing figures are quiet-machine estimates (measure.go).
const (
	mSetupS     = "setup_s"      // median wall time of building and warming the workload's world, s
	mWallS      = "wall_s"       // wall time of one block of fixed work, s
	mOpsPerS    = "ops_per_s"    // ops of one block / wall_s
	mOpMsP50    = "op_ms_p50"    // median op latency within a block, ms
	mOpMsP95    = "op_ms_p95"    // 95th-percentile op latency within a block, ms
	mLiveHeapMB = "live_heap_mb" // heap still live after a collection at the end of the timed section, MB
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (the repo
// root under `go run ./bench`) or its parent (under `go test ./bench`).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, nil
	}
	return nil, firstErr
}

func (s *benchSpec) unit(name string) string {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
