package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cellfi/internal/experiments"
	"cellfi/internal/runner"
	"cellfi/internal/trace"
)

// TestSimGrid pins `cellfi sim` over two small grids. The first 11
// columns of every line must equal the committed golden, which the
// former `cellfi sweep` wrote for the same lists and seeds (its header
// and rows had exactly those columns), and the whole output must be
// byte-identical at 1 and 4 workers.
func TestSimGrid(t *testing.T) {
	grids := []struct {
		golden string
		args   []string
	}{
		{"sim_grid_a.csv", []string{"-scheme", "lte,cellfi,oracle", "-aps", "2,3", "-clients", "1,2", "-trials", "2", "-epochs", "2"}},
		{"sim_grid_b.csv", []string{"-scheme", "random-hop,hybrid", "-aps", "4", "-clients", "3", "-trials", "1", "-epochs", "3",
			"-bw", "10", "-seed", "7", "-starve", "1"}},
	}
	for _, g := range grids {
		t.Run(g.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", g.golden))
			if err != nil {
				t.Fatal(err)
			}
			var outs [2]string
			for i, w := range []string{"1", "4"} {
				var stdout, stderr bytes.Buffer
				args := append([]string{"sim", "-workers", w}, g.args...)
				if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
					t.Fatalf("cellfi %s = %d; stderr:\n%s", strings.Join(args, " "), code, stderr.String())
				}
				outs[i] = stdout.String()
			}
			if outs[0] != outs[1] {
				t.Errorf("output differs between -workers 1 and 4:\n%s\nvs\n%s", outs[0], outs[1])
			}
			got := strings.Split(strings.TrimSuffix(outs[0], "\n"), "\n")
			wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
			if len(got) != len(wantLines) {
				t.Fatalf("%d lines, golden has %d:\n%s", len(got), len(wantLines), outs[0])
			}
			for i, line := range got {
				cols := strings.Split(line, ",")
				if len(cols) != 15 {
					t.Fatalf("line %d has %d columns, want 15: %q", i+1, len(cols), line)
				}
				if head := strings.Join(cols[:11], ","); head != wantLines[i] {
					t.Errorf("line %d: first 11 columns\n got %s\nwant %s", i+1, head, wantLines[i])
				}
			}
		})
	}
}

// FuzzSimLists feeds arbitrary -scheme/-aps/-clients values to sim's
// list parsers: each must return an error rather than panic, and an
// accepted list has one entry per comma-separated field, every size at
// least 1.
func FuzzSimLists(f *testing.F) {
	for _, s := range []string{"cellfi,lte,oracle", "6,8,10,12,14", "6", "", ",", " 3 , 4", "0", "-1", "lte,,", "99999999999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		fields := len(strings.Split(s, ","))
		if sizes, err := parseSizes(s); err == nil {
			if len(sizes) != fields {
				t.Fatalf("parseSizes(%q) = %v: %d entries for %d fields", s, sizes, len(sizes), fields)
			}
			for _, v := range sizes {
				if v < 1 {
					t.Fatalf("parseSizes(%q) accepted %d", s, v)
				}
			}
		}
		if schemes, err := parseSchemes(s); err == nil && len(schemes) != fields {
			t.Fatalf("parseSchemes(%q) = %v: %d entries for %d fields", s, schemes, len(schemes), fields)
		}
	})
}

// TestSimTraceTelemetry pins what `cellfi sim -trace-dir D -telemetry F`
// leaves behind: one trace file per run, named run<index>-<label>.trace
// in row order; a CellFi stream that decodes to records; each trace path
// on stderr; and F a report with one run per row.
func TestSimTraceTelemetry(t *testing.T) {
	dir := t.TempDir()
	traces := filepath.Join(dir, "traces")
	if err := os.Mkdir(traces, 0o755); err != nil {
		t.Fatal(err)
	}
	tel := filepath.Join(dir, "sim.json")
	args := []string{"sim", "-scheme", "cellfi,oracle", "-aps", "2", "-clients", "1", "-epochs", "2",
		"-trace-dir", traces, "-telemetry", tel}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("cellfi %s = %d; stderr:\n%s", strings.Join(args, " "), code, stderr.String())
	}
	want := []string{"run0000-cellfi_aps_2_clients_1_trial_0.trace", "run0001-oracle_aps_2_clients_1_trial_0.trace"}
	entries, err := os.ReadDir(traces)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("trace files %v, want %v", got, want)
	}
	for _, name := range want {
		if path := filepath.Join(traces, name); !strings.Contains(stderr.String(), "trace: "+path+" (") {
			t.Errorf("stderr does not list %s:\n%s", path, stderr.String())
		}
	}
	raw, err := os.ReadFile(filepath.Join(traces, want[0]))
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := trace.Decode(raw); err != nil || len(recs) == 0 {
		t.Fatalf("cellfi stream: %d records, err %v", len(recs), err)
	}
	if rep := readReport(t, tel); len(rep.Runs) != 2 {
		t.Fatalf("telemetry has %d runs, want 2", len(rep.Runs))
	}
}

// TestExperimentsTelemetry pins `cellfi experiments -telemetry F`: the
// reuse ablation in quick mode is two arms of one trial, so F holds two
// runs, each under its own label.
func TestExperimentsTelemetry(t *testing.T) {
	experiments.DrainReports() // drop reports earlier in-process runs left behind
	tel := filepath.Join(t.TempDir(), "experiments.json")
	args := []string{"experiments", "-id", "reuse", "-quick", "-telemetry", tel}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("cellfi %s = %d; stderr:\n%s", strings.Join(args, " "), code, stderr.String())
	}
	rep := readReport(t, tel)
	if len(rep.Runs) != 2 {
		t.Fatalf("telemetry has %d runs, want 2 (two arms, one trial)", len(rep.Runs))
	}
	seen := map[string]bool{}
	for _, r := range rep.Runs {
		if seen[r.Label] {
			t.Errorf("label %q appears twice", r.Label)
		}
		seen[r.Label] = true
	}
}

func readReport(t *testing.T, path string) runner.Report {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep runner.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}
