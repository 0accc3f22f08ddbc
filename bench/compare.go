package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of one (workload, metric) row.
const (
	vBetter     = "better"
	vSame       = "same"
	vWorse      = "worse"
	vUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// compareRow is one line of `bench compare`.
type compareRow struct {
	workload, metric, unit string
	base, cand             float64 // medians
	ratio                  float64 // cand / base
	spreadA, spreadB       float64 // IQR / median of each side's runs
	bound                  float64
	verdict                string
}

// judge applies a metric's bound: the candidate is worse (better) when
// its median moved the wrong (right) way by more than bound x base.
// When either side's spread exceeds the bound the row is unresolved,
// unless every candidate run reads better than every base run.
func judge(m metricSpec, a, b []float64) compareRow {
	r := compareRow{metric: m.Name, unit: m.Unit, base: median(a), cand: median(b),
		spreadA: spread(a), spreadB: spread(b), bound: m.Bound}
	if r.base != 0 {
		r.ratio = r.cand / r.base
	}
	gain := r.cand - r.base // >0 = better
	if m.Better == "lower" {
		gain = -gain
	}
	rel := 0.0
	if r.base != 0 {
		rel = gain / r.base
		if r.base < 0 {
			rel = -rel
		}
	}
	separated := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "lower" && y >= x) || (m.Better != "lower" && y <= x) {
				separated = false
			}
		}
	}
	switch {
	case (r.spreadA > m.Bound || r.spreadB > m.Bound) && !separated:
		r.verdict = vUnresolved
	case rel < -m.Bound:
		r.verdict = vWorse
	case rel > m.Bound:
		r.verdict = vBetter
	default:
		r.verdict = vSame
	}
	return r
}

func readSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSets judges every (workload, end-to-end metric) pair of two
// result sets. It refuses sets whose machine stamps differ or that
// were taken with -scale.
func compareSets(spec *benchSpec, a, b *resultSet) (rows []compareRow, failedRise []string, err error) {
	sa, sb := a.Stamp, b.Stamp
	if sa.NumCPU != sb.NumCPU || sa.GoMaxProcs != sb.GoMaxProcs || sa.GoVersion != sb.GoVersion {
		return nil, nil, fmt.Errorf("machine stamps differ: %d CPUs/GOMAXPROCS %d/%s vs %d CPUs/GOMAXPROCS %d/%s",
			sa.NumCPU, sa.GoMaxProcs, sa.GoVersion, sb.NumCPU, sb.GoMaxProcs, sb.GoVersion)
	}
	if sa.Scaled || sb.Scaled {
		return nil, nil, fmt.Errorf("scaled results are never comparable")
	}
	var names []string
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb.FailedFrac > wa.FailedFrac {
			failedRise = append(failedRise, fmt.Sprintf("%s: failed_frac %g -> %g", name, wa.FailedFrac, wb.FailedFrac))
		}
		for _, m := range spec.EndToEnd {
			ma, mb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if ma == nil || mb == nil {
				continue
			}
			row := judge(m, ma.Values, mb.Values)
			row.workload = name
			rows = append(rows, row)
		}
	}
	return rows, failedRise, nil
}

// compareMain is `bench compare A.json B.json`: A is the base. Exit 1
// on any worse row or any rise in failed_frac, 2 on unusable input.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.json CANDIDATE.json")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var sets [2]*resultSet
	for i, p := range args {
		if sets[i], err = readSet(p); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	rows, failedRise, err := compareSets(spec, sets[0], sets[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare: refusing:", err)
		return 2
	}
	fmt.Fprintf(out, "base %s (commit %s, seed %d, %d run(s))\ncand %s (commit %s, seed %d, %d run(s))\n",
		args[0], sets[0].Stamp.GitCommit, sets[0].Stamp.Seed, sets[0].Stamp.Runs,
		args[1], sets[1].Stamp.GitCommit, sets[1].Stamp.Seed, sets[1].Stamp.Runs)
	fmt.Fprintf(out, "%-18s %-12s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "base", "cand", "cand/base", "spreadA", "spreadB", "bound", "verdict")
	count := map[string]int{}
	for _, r := range rows {
		count[r.verdict]++
		fmt.Fprintf(out, "%-18s %-12s %12.5g %12.5g %8.3fx %7.1f%% %7.1f%% %5.0f%%  %s\n",
			r.workload, r.metric, r.base, r.cand, r.ratio, 100*r.spreadA, 100*r.spreadB, 100*r.bound, r.verdict)
	}
	for _, f := range failedRise {
		fmt.Fprintln(out, "failed_frac rose:", f)
	}
	fmt.Fprintf(out, "%d better, %d same, %d worse, %d unresolved; %d failed_frac rise(s)\n",
		count[vBetter], count[vSame], count[vWorse], count[vUnresolved], len(failedRise))
	if count[vWorse] > 0 || len(failedRise) > 0 {
		return 1
	}
	return 0
}
