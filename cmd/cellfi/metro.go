package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"cellfi/internal/metro"
)

// runMetro simulates one city-scale CellFi world — 2,000 access points
// and 100,000 UEs on a 14 km x 7 km rectangle — and fails if it ran
// slower than real time.
//
// The run covers one compressed diurnal cycle: the attached population
// ramps from the overnight floor to the daytime peak and back while a
// rotating cohort of UEs moves through the city. Whole-run metrics come
// from bounded-memory streaming aggregates, so memory stays flat no
// matter how long the city runs.
//
// Every epoch phase forks over GOMAXPROCS workers. With -shards K > 1
// the same world runs on K region shards in conservative lockstep
// windows, one engine per shard; every number except the wall-clock
// ones is identical at every K and core count (see DESIGN.md, "Sharded
// execution and the determinism contract").
func runMetro(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlags("metro", stderr)
	epochs := fs.Int("epochs", 240, "simulated seconds (one diurnal cycle = 240)")
	seed := fs.Int64("seed", 1, "world seed")
	shards := fs.Int("shards", 1, "region shards (1 = no cluster; every phase still forks over GOMAXPROCS)")
	asJSON := fs.Bool("json", false, "emit a JSON summary instead of text")
	if code, ok := parse(fs, args, 0); !ok {
		return code
	}
	if *shards < 1 || *shards > 256 {
		return fail(fs, exitUsage, "-shards %d out of range, want 1..256", *shards)
	}
	if *epochs < 1 {
		return fail(fs, exitUsage, "-epochs must be at least 1")
	}
	// An epoch is one simulated second; the run's end must fit sim.Time.
	if maxEpochs := math.MaxInt64 / int64(time.Second); int64(*epochs) > maxEpochs {
		return fail(fs, exitUsage, "-epochs %d past what a simulated clock holds, want at most %d", *epochs, maxEpochs)
	}

	cfg := metro.DefaultCity(*seed)
	cfg.Shards = *shards
	buildStart := time.Now()
	w := metro.New(cfg)
	defer w.Close()
	buildWall := time.Since(buildStart)

	simStart := time.Now()
	w.Run(*epochs)
	simWall := time.Since(simStart)
	realtime := float64(*epochs) / simWall.Seconds()
	thr, thrQ := w.Throughput(), w.ThroughputQ()
	attMean, attPeak := w.Attached()

	if *asJSON {
		summary := map[string]any{
			"aps":                 cfg.NAPs,
			"ues":                 cfg.NUEs,
			"area_km2":            cfg.AreaW * cfg.AreaH / 1e6,
			"epochs":              *epochs,
			"shards":              cfg.Shards,
			"build_ms":            buildWall.Milliseconds(),
			"sim_wall_ms":         simWall.Milliseconds(),
			"sim_realtime_factor": realtime,
			"attached_mean":       attMean,
			"attached_peak":       attPeak,
			"delivered_gbit":      float64(w.DeliveredBits()) / 1e9,
			"ue_mbps_mean":        thr.Mean,
			"ue_mbps_p50":         thrQ.Quantile(0.5),
			"ue_mbps_p95":         thrQ.Quantile(0.95),
		}
		if st, ok := w.ShardStats(); ok {
			summary["shard_windows"] = st.Windows
			summary["shard_utilization"] = st.Utilization()
			summary["shard_barrier_stall_ms"] = st.BarrierStallMS()
			summary["cross_shard_messages"] = st.Msgs
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			return fail(fs, exitFailure, "%v", err)
		}
		return 0
	}

	fmt.Fprintf(stdout, "metro: %d APs, %d UEs on %.0f km²\n",
		cfg.NAPs, cfg.NUEs, cfg.AreaW*cfg.AreaH/1e6)
	fmt.Fprintf(stdout, "built world in %v\n", buildWall.Round(time.Millisecond))
	mode := "1 slab"
	if cfg.Shards > 1 {
		mode = fmt.Sprintf("%d shards", cfg.Shards)
	}
	fmt.Fprintf(stdout, "simulated %d s in %v — %.1fx real time, %s on GOMAXPROCS %d\n",
		*epochs, simWall.Round(time.Millisecond), realtime, mode, runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "attached: %.0f mean / %d peak UEs\n", attMean, attPeak)
	fmt.Fprintf(stdout, "delivered: %.1f Gbit total\n", float64(w.DeliveredBits())/1e9)
	fmt.Fprintf(stdout, "per-UE throughput: %.2f Mbps mean, %.2f p50, %.2f p95\n",
		thr.Mean, thrQ.Quantile(0.5), thrQ.Quantile(0.95))
	if st, ok := w.ShardStats(); ok {
		fmt.Fprintf(stdout, "shards: %d windows, %.1f ms total barrier stall, utilization",
			st.Windows, st.BarrierStallMS())
		for _, u := range st.Utilization() {
			fmt.Fprintf(stdout, " %.0f%%", u*100)
		}
		fmt.Fprintln(stdout)
	}
	if realtime < 1 {
		fmt.Fprintln(stdout, "WARNING: slower than real time")
		return exitFailure
	}
	return 0
}
