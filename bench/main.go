// Command bench is the repository's one benchmark: seven workloads that
// measure CellFi-in-Go end to end (paper reproduction, the IM protocol
// at density, the city world direct and sharded, the spectrum database
// over a real wire and in-process) and, in traced runs, layer by layer.
// See README.md in this directory and BENCHMARK.json at the repo root.
//
// Usage:
//
//	go run ./bench -workload <name> -seed N [-seconds S] [-trace 0|1]
//	go run ./bench -workload all -seed N [-runs R] [-trace 0|1] [-out file.json]
//	go run ./bench compare A.json B.json
//
// One workload runs in this process and prints, as the last line of
// standard output, one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1. "all" runs every workload in a child process of its
// own and writes one result file with a machine stamp.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// outDir receives span files and result sets; it is git-ignored.
const outDir = "bench/out"

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	runs     int
	out      string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", float64(spec.RunSeconds), "time budget of the timed section")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and a span file")
	flag.Float64Var(&o.scale, "scale", 1, "test-only size factor; scaled results are never comparable")
	flag.IntVar(&o.runs, "runs", 1, "with -workload all: runs of each workload")
	flag.StringVar(&o.out, "out", "", "with -workload all: result file (default bench/out/result-seed<N>.json)")
	flag.Parse()
	if flag.NArg() > 0 || o.scale <= 0 || o.scale > 1 || o.seconds < 0 || o.runs < 1 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)

	if o.workload == "all" {
		os.Exit(runSet(spec, o, procs, os.Stdout))
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	os.Exit(runOne(spec, w, o, procs, os.Stdout))
}

// detail is the provenance a single run prints on its "#detail" line
// for the set runner; the contract's last line has no room for it.
type detail struct {
	Workload  string    `json:"workload"`
	Digest    string    `json:"sim_digest,omitempty"`
	Ops       int       `json:"ops"`
	TimedS    float64   `json:"timed_s"`
	BlocksS   []float64 `json:"blocks_s"`
	SetupsS   []float64 `json:"setups_s"`
	AllocMB   float64   `json:"alloc_mb"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Notes     []string  `json:"notes,omitempty"`
	TraceFile string    `json:"trace_file,omitempty"`
}

// metricValue is one entry of the last line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the contract's result object.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne measures one workload in this process and prints its result.
func runOne(spec *benchSpec, w workload, o options, procs int, out io.Writer) int {
	e := &env{seed: o.seed, scale: o.scale, procs: procs}
	if o.trace == 1 {
		e.tr = newTracer()
	}
	res, err := runWorkload(w, e, o.seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	d := detail{Workload: w.name, Digest: res.verdict.digest, Ops: res.ops(),
		TimedS: res.timedS, SetupsS: res.setups, AllocMB: float64(res.allocB) / 1e6, PeakRSSMB: res.peakRSS, Notes: res.verdict.notes}

	for _, b := range res.blocks {
		d.BlocksS = append(d.BlocksS, b.wallS)
	}
	fmt.Fprintf(out, "%s  seed %d  GOMAXPROCS %d  %d blocks, %d ops in %.2f s\n",
		w.name, o.seed, procs, len(d.BlocksS), d.Ops, d.TimedS)
	for _, n := range res.verdict.notes {
		fmt.Fprintln(out, "  FAILED:", n)
	}

	list := spec.EndToEnd
	if o.trace == 1 {
		list = spec.PerLayer
		spans := e.tr.all()
		layers := selfTimes(spans)
		tracedOpsPerS := float64(res.blocks[0].ops) / medianWallS(res.blocks)
		res.metrics["bench.trace_overhead_pct"] = 100 * (res.untracedOpsPerS/tracedOpsPerS - 1)
		res.metrics["bench.peak_rss_mb"] = res.peakRSS
		res.metrics["bench.alloc_kb_per_op"] = float64(res.allocB) / 1e3 / float64(res.ops())
		for _, lt := range layers {
			if lt.Name == "bench.block" || lt.Name == "bench.pass" {
				res.metrics["bench.harness_self_pct"] = 100 * float64(lt.SelfNS) / float64(lt.TotalNS)
			}
		}
		d.TraceFile = filepath.Join(outDir, "trace-"+w.name+".json")
		if err := writeSpans(d.TraceFile, spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(out, "  %-28s %9s %12s %12s\n", "span", "count", "total ms", "self ms")
		for _, lt := range layers {
			fmt.Fprintf(out, "  %-28s %9d %12.2f %12.2f\n", lt.Name, lt.Count, float64(lt.TotalNS)/1e6, float64(lt.SelfNS)/1e6)
		}
	}

	// Every metric of the list is reported; a layer this workload
	// bypasses did no work and reads 0.
	ll := lastLine{Correct: res.verdict.failed == 0, Attempted: res.verdict.attempted,
		Failed: res.verdict.failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		v := res.metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ll.Metrics[m.Name] = metricValue{v, m.Unit}
		if v != 0 || o.trace == 0 {
			fmt.Fprintf(out, "  %-36s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	var stray []string
	for name := range res.metrics {
		if _, listed := ll.Metrics[name]; !listed && spec.unit(name) == "" {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		fmt.Fprintf(os.Stderr, "bench: metrics missing from BENCHMARK.json: %v\n", stray)
		return 1
	}
	if d.Digest != "" {
		fmt.Fprintf(out, "  sim_digest %s\n", d.Digest)
	}
	dj, _ := json.Marshal(d) // plain struct of numbers and strings
	fmt.Fprintf(out, "#detail %s\n", dj)
	lj, _ := json.Marshal(ll)
	fmt.Fprintf(out, "%s\n", lj)
	if res.verdict.failed != 0 {
		return 1
	}
	return 0
}
