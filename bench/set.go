package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// stamp records the machine and provenance of a result set. Results
// are comparable only between equal num_cpu, gomaxprocs and go_version.
type stamp struct {
	NumCPU     int       `json:"num_cpu"`
	GoMaxProcs int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Kernel     string    `json:"kernel"`
	GitCommit  string    `json:"git_commit"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Runs       int       `json:"runs"`
	Scale      float64   `json:"scale"`
	Scaled     bool      `json:"scaled"`
	Started    time.Time `json:"started"`
}

func newStamp(o options, procs int) stamp {
	s := stamp{NumCPU: runtime.NumCPU(), GoMaxProcs: procs, GoVersion: runtime.Version(),
		Kernel: "unknown", GitCommit: "unknown", Seed: o.seed, Seconds: o.seconds, Runs: o.runs,
		Scale: o.scale, Scaled: o.scale != 1, Started: time.Now().UTC()}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(raw))
	}
	if raw, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.GitCommit = strings.TrimSpace(string(raw))
	}
	return s
}

// metricRuns holds one metric's value in every run of a set.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
}

// workloadResult is one workload's part of a result set.
type workloadResult struct {
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	FailedFrac float64                `json:"failed_frac"`
	Digest     string                 `json:"sim_digest,omitempty"`
	Samples    []detail               `json:"samples"` // per run: blocks, ops, timed_s, set-ups
	EndToEnd   map[string]*metricRuns `json:"end_to_end"`
	PerLayer   map[string]*metricRuns `json:"per_layer,omitempty"`
}

// resultSet is the file `-workload all` writes and `compare` reads.
type resultSet struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadResult `json:"workloads"`
	// Speedup is city_diurnal.wall_s / city_sharded.wall_s, informational.
	Speedup float64 `json:"city_sharded_speedup_x,omitempty"`
}

// runChild re-executes this binary for one workload, so memory metrics
// are attributable to it, and parses the run's detail and result lines.
func runChild(o options, name string, trace int, echo io.Writer) (detail, lastLine, error) {
	var d detail
	var ll lastLine
	self, err := os.Executable()
	if err != nil {
		return d, ll, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-scale", fmt.Sprint(o.scale), "-trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "#detail "); ok {
			if err := json.Unmarshal([]byte(rest), &d); err != nil {
				return d, ll, fmt.Errorf("%s: detail line: %w", name, err)
			}
			continue
		}
		if last != "" {
			fmt.Fprintln(echo, last)
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &ll); err != nil {
		if runErr != nil {
			return d, ll, fmt.Errorf("%s: %w", name, runErr)
		}
		return d, ll, fmt.Errorf("%s: result line: %w", name, err)
	}
	return d, ll, nil // a failed correctness check exits 1 but still reports
}

func fold(dst map[string]*metricRuns, ll lastLine) {
	for name, mv := range ll.Metrics {
		mr := dst[name]
		if mr == nil {
			mr = &metricRuns{Unit: mv.Unit}
			dst[name] = mr
		}
		mr.Values = append(mr.Values, mv.Value)
		mr.Median = median(mr.Values)
	}
}

// runSet runs every workload o.runs times (and once more traced, with
// -trace 1), prints a summary and writes the result file.
func runSet(spec *benchSpec, o options, procs int, out io.Writer) int {
	set := resultSet{Stamp: newStamp(o, procs), Workloads: map[string]*workloadResult{}}
	for _, w := range workloads() {
		set.Workloads[w.name] = &workloadResult{EndToEnd: map[string]*metricRuns{}}
	}
	bad := false
	for run := 0; run < o.runs; run++ {
		for _, w := range workloads() {
			d, ll, err := runChild(o, w.name, 0, out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			wr := set.Workloads[w.name]
			wr.Attempted += ll.Attempted
			wr.Failed += ll.Failed
			wr.Digest = d.Digest
			wr.Samples = append(wr.Samples, d)
			fold(wr.EndToEnd, ll)
		}
	}
	if o.trace == 1 {
		for _, w := range workloads() {
			_, ll, err := runChild(o, w.name, 1, out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			wr := set.Workloads[w.name]
			wr.Attempted += ll.Attempted
			wr.Failed += ll.Failed
			wr.PerLayer = map[string]*metricRuns{}
			fold(wr.PerLayer, ll)
		}
	}

	fmt.Fprintf(out, "\n==== summary: seed %d, %d run(s), GOMAXPROCS %d of %d CPUs, %s ====\n",
		o.seed, o.runs, procs, set.Stamp.NumCPU, set.Stamp.GoVersion)
	fmt.Fprintf(out, "%-18s", "workload")
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(out, " %14s", m.Name+"["+m.Unit+"]")
	}
	fmt.Fprintf(out, " %12s\n", "failed_frac")
	for _, w := range workloads() {
		wr := set.Workloads[w.name]
		wr.FailedFrac = float64(wr.Failed) / float64(max(wr.Attempted, 1))
		bad = bad || wr.Failed > 0
		fmt.Fprintf(out, "%-18s", w.name)
		for _, m := range spec.EndToEnd {
			fmt.Fprintf(out, " %14.5g", wr.EndToEnd[m.Name].Median)
		}
		fmt.Fprintf(out, " %12g\n", wr.FailedFrac)
	}
	direct, sharded := set.Workloads["city_diurnal"], set.Workloads["city_sharded"]
	if direct.Digest != sharded.Digest {
		bad = true
		sharded.Failed++
		fmt.Fprintf(out, "FAILED: city_diurnal digest %s != city_sharded digest %s\n", direct.Digest, sharded.Digest)
	} else {
		fmt.Fprintf(out, "city_diurnal and city_sharded digests match: %s\n", direct.Digest)
	}
	if s := sharded.EndToEnd[mWallS].Median; s > 0 {
		set.Speedup = direct.EndToEnd[mWallS].Median / s
		fmt.Fprintf(out, "city_diurnal.wall_s / city_sharded.wall_s = %.3f / %.3f = %.2fx at %d shards\n",
			direct.EndToEnd[mWallS].Median, s, set.Speedup, cityShards(procs))
	}

	path := o.out
	if path == "" {
		path = filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", o.seed))
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = os.WriteFile(path, append(raw, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(out, "wrote", path)
	if bad {
		return 1
	}
	return 0
}
