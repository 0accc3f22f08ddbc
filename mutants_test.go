//go:build unix

package cellfi

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// mutant is one planted bug and the test that must catch it: each edit
// replaces an anchor that occurs exactly once in its file, and with
// every edit applied, test in pkg must fail — with want in its output
// when want is set.
type mutant struct {
	name  string
	edits []mutantEdit
	pkg   string // relative to the repo root, e.g. "./internal/core"
	test  string
	want  string
}

type mutantEdit struct{ file, anchor, repl string }

// mutants is the catalogue: each entry proves that a pin is not
// vacuous. A refactor that moves an anchor fails the catalogue's
// always-on half, so the catalogue cannot rot silently.
var mutants = []mutant{
	// The vacate gate's sabotage: the radio stays on past the vacate
	// budget and the lost-contact vacate never fires. The chaos world's
	// online watchdog must flag the healthy-fleet run.
	{name: "vacate-gate-broken", edits: []mutantEdit{
		{"internal/core/lease.go", "return !now.After(s.VacateBy())", "return true"},
		{"internal/core/channelsel.go", "if now.After(s.VacateBy()) {", "if false {"},
	}, pkg: "./internal/chaos", test: "TestWatchdogIgnoresHealthyFleetUnderSameOutage", want: "tx-past-vacate-budget"},
	// The checker forgets that a crash drops the lease.
	{name: "crash-keeps-lease", edits: []mutantEdit{
		{"internal/invariant/invariant.go", "\t\tst.hasLease = false\n\t\tst.down = r.Args[0] == 0", "\t\tst.down = r.Args[0] == 0"},
	}, pkg: "./internal/invariant", test: "TestRestartDropsLease"},
	{name: "expiry-off-by-one", edits: []mutantEdit{
		{"internal/invariant/invariant.go", "case r.T > st.until:", "case r.T > st.until+1:"},
	}, pkg: "./internal/invariant", test: "TestTxPastExpiry"},
	// A retry decodes into the result a rejected attempt half-filled.
	{name: "retry-keeps-rejected-result", edits: []mutantEdit{
		{"internal/paws/client.go", "reflect.ValueOf(result).Elem().SetZero()", "_ = reflect.ValueOf(result)"},
	}, pkg: "./internal/paws", test: "TestRetryDiscardsRejectedInit"},
	{name: "cqi-drop-inclusive", edits: []mutantEdit{
		{"internal/netsim/netsim.go", "float64(withI) < core.DetectDropFraction", "float64(withI) <= core.DetectDropFraction"},
	}, pkg: "./internal/netsim", test: "TestStepGolden"},
	// Forked passes that share one worker's scratch or partials.
	{name: "netsim-shared-scratch", edits: []mutantEdit{
		{"internal/netsim/fork.go", "kernel(n, ks, i)", "kernel(n, &n.scratch[0], i)"},
	}, pkg: "./internal/netsim", test: "TestStepWorkerInvariant"},
	{name: "metro-shared-partials", edits: []mutantEdit{
		{"internal/metro/metro.go", "\tsc := w.sctx[s]\n\town := uint8(s)\n\tk := cfg.MaxNeighbors\n",
			"\tsc := w.sctx[s]\n\town := uint8(s)\n\tk := cfg.MaxNeighbors\n\twk = &sc.workers[0]\n"},
	}, pkg: "./internal/metro", test: "TestMetroWorkerInvariant"},
	// One per digest test.
	{name: "theorem1-quick-trials", edits: []mutantEdit{
		{"internal/experiments/theorem1.go", "\t\ttrials = 12\n", "\t\ttrials = 11\n"},
	}, pkg: "./internal/experiments", test: "TestGolden"},
	{name: "theorem1-full-trials", edits: []mutantEdit{
		{"internal/experiments/theorem1.go", "trials := 60", "trials := 59"},
	}, pkg: "./internal/experiments", test: "TestGoldenFull"},
	{name: "theorem1-full-case", edits: []mutantEdit{
		{"internal/experiments/theorem1.go", "{12, 0, 0.95},", "{12, 0, 0.9},"},
	}, pkg: "./internal/experiments", test: "TestReproDigest"},
	{name: "metro-mobility-step", edits: []mutantEdit{
		{"internal/metro/metro.go", "step := cfg.SpeedMps * float64(stride)", "step := cfg.SpeedMps * float64(stride+1)"},
	}, pkg: "./internal/metro", test: "TestMetroGolden"},
	{name: "city-peak-load", edits: []mutantEdit{
		{"internal/metro/metro.go", "MaxLoadFrac:  0.95,", "MaxLoadFrac:  0.94,"},
	}, pkg: "./internal/metro", test: "TestCityDigest"},
	{name: "wifi-ack-size", edits: []mutantEdit{
		{"internal/wifi/params.go", "ackBytes = 32", "ackBytes = 33"},
	}, pkg: "./internal/wifi", test: "TestCSMAGolden"},
	{name: "wifi-11af20-basic-rate", edits: []mutantEdit{
		{"internal/wifi/params.go", "\tp.BasicRateBps = 6e6\n\treturn p", "\tp.BasicRateBps = 5e6\n\treturn p"},
	}, pkg: "./internal/wifi", test: "TestCSMAReferee"},
	// One per constant that replaced an option only tests set.
	{name: "failover-after-2", edits: []mutantEdit{
		{"internal/paws/client.go", "failoverAfter = 1", "failoverAfter = 2"},
	}, pkg: "./internal/paws", test: "TestFailoverToReplicaAndBack"},
	{name: "probe-after-9", edits: []mutantEdit{
		{"internal/paws/client.go", "probeAfter = 8", "probeAfter = 9"},
	}, pkg: "./internal/paws", test: "TestFailoverToReplicaAndBack"},
	{name: "pf-beta", edits: []mutantEdit{
		{"internal/lte/scheduler.go", "const pfBeta = 1.0 / 1000", "const pfBeta = 1.0 / 999"},
	}, pkg: "./internal/lte", test: "TestSchedulerEquivalenceWithMapReference"},
	{name: "retention-15", edits: []mutantEdit{
		{"internal/invariant/invariant.go", "const maxViolations = 16", "const maxViolations = 15"},
	}, pkg: "./internal/invariant", test: "TestTotalsAndBound"},
	{name: "plot-height-17", edits: []mutantEdit{
		{"internal/stats/plot.go", "plotWidth, plotHeight = 72, 18", "plotWidth, plotHeight = 72, 17"},
	}, pkg: "./internal/stats", test: "TestPlotRespectsSize"},
	{name: "netsim-tdd-5", edits: []mutantEdit{
		{"internal/netsim/netsim.go", "var tdd = lte.TDDConfig4", "var tdd = lte.TDDConfigs[5]"},
	}, pkg: "./internal/netsim", test: "TestStepGolden"},
	{name: "chaos-lease-91", edits: []mutantEdit{
		{"internal/chaos/chaos.go", "const leaseDuration = 90 * time.Second", "const leaseDuration = 91 * time.Second"},
	}, pkg: "./internal/chaos", test: "TestCalmWorldLeaseExpiry"},
	// The grid's point-keyed seed rule, which `cellfi sim` runs on.
	{name: "sim-seed-rule", edits: []mutantEdit{
		{"internal/experiments/sweep.go", "int64(aps)*perAP", "int64(aps)*(perAP+1)"},
	}, pkg: "./cmd/cellfi", test: "TestSimGrid"},
	// The uplink reads its static loss from the downlink's table entry.
	{name: "uplink-loss", edits: []mutantEdit{
		{"internal/lte/link.go", "loss := e.rxSlot(serving, cl.Pos, cl.ID, sc).lossDB", "loss := e.rxSlot(serving, cl.Pos, cl.ID, sc).lossDB + 0.001"},
	}, pkg: "./internal/lte", test: "TestUplinkSINRClosedForm"},
	// Grid neighbourhoods that drift from the brute-force reference.
	{name: "cells-near-short", edits: []mutantEdit{
		{"internal/netsim/neighbors.go", "n.cellGrid.AppendWithin(n.cellScratch[:0], p, n.sigRadius)", "n.cellGrid.AppendWithin(n.cellScratch[:0], p, n.sigRadius-1)"},
	}, pkg: "./internal/netsim", test: "TestNeighborhoodsMatchBrute"},
	{name: "active-near-unfiltered", edits: []mutantEdit{
		{"internal/netsim/neighbors.go", "if n.activeFlag[c] {", "if true {"},
	}, pkg: "./internal/netsim", test: "TestNeighborhoodsMatchBrute"},
	{name: "metro-row-one-short", edits: []mutantEdit{
		{"internal/metro/metro.go", "if cnt >= k {", "if cnt >= k-1 {"},
	}, pkg: "./internal/metro", test: "TestMetroIndexedEquivalence"},
	// Wi-Fi contention re-arms its pending event in place: the re-arm
	// must take a fresh sequence number, as Cancel + Schedule would, and
	// NAV must reach everyone who hears either end of the exchange.
	{name: "reschedule-keeps-seq", edits: []mutantEdit{
		{"internal/sim/sim.go", "\tsl.seq = e.seq\n", ""},
	}, pkg: "./internal/wifi", test: "TestCSMAGolden"},
	{name: "nav-drops-responder", edits: []mutantEdit{
		{"internal/wifi/network.go", "\traiseNAV(n.hearList(responder), initiator, responder, until)\n", ""},
	}, pkg: "./internal/wifi", test: "TestCSMAGolden"},
	// A deleted option added back: the guards must refuse it.
	{name: "option-readded", edits: []mutantEdit{
		{"internal/invariant/invariant.go", "\tSlack time.Duration\n", "\tSlack time.Duration\n\tMaxViolations int\n"},
		{"internal/invariant/invariant.go", "if len(c.violations) < maxViolations {", "if len(c.violations) < max(maxViolations, c.MaxViolations) {"},
	}, pkg: ".", test: "TestGuards", want: "Checker.MaxViolations is read but never written"},
}

// mutantTimeout bounds one mutant's `go test`, build included.
const mutantTimeout = 5 * time.Minute

// TestMutants checks, on every run, that each mutant's anchors occur
// exactly once and its test exists. Unless -short is set it then
// applies each mutant to its own copy of the module and runs
// `go test -count=1 -run '^Test$' pkg` there, which must fail in that
// test (a build failure is no catch). Run it alone with `make mutants`.
func TestMutants(t *testing.T) {
	for _, m := range mutants {
		for _, e := range m.edits {
			b, err := os.ReadFile(e.file)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if n := bytes.Count(b, []byte(e.anchor)); n != 1 {
				t.Errorf("%s: anchor %q occurs %d times in %s, want once", m.name, e.anchor, n, e.file)
			}
		}
		if !hasTest(t, m.pkg, m.test) {
			t.Errorf("%s: no %s in %s", m.name, m.test, m.pkg)
		}
	}
	if t.Failed() {
		return
	}
	if testing.Short() {
		t.Skip("running the mutants takes a minute or two; anchors and tests checked")
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			copyModule(t, dir)
			for _, e := range m.edits {
				path := filepath.Join(dir, e.file)
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, bytes.Replace(b, []byte(e.anchor), []byte(e.repl), 1), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			out, err := runMutant(dir, m.pkg, m.test)
			switch {
			case err == nil:
				t.Errorf("survived: %s still passes\n%s", m.test, out)
			case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
				t.Errorf("the mutant does not build, which is no catch:\n%s", out)
			case !bytes.Contains(out, []byte("--- FAIL: "+m.test)):
				t.Errorf("%s did not fail (%v):\n%s", m.test, err, out)
			case m.want != "" && !bytes.Contains(out, []byte(m.want)):
				t.Errorf("%s failed without %q in its output:\n%s", m.test, m.want, out)
			}
		})
	}
}

// runMutant runs one test of pkg in the module copy at dir, in its own
// process group: on timeout the whole group is killed, and once the go
// command has exited the group is killed again, so no test binary or
// compiler outlives the call.
func runMutant(dir, pkg, test string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), mutantTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "test", "-count=1", "-run", "^"+test+"$", pkg)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 10 * time.Second
	out, err := cmd.CombinedOutput()
	if cmd.Process != nil {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	}
	return out, err
}

// copyModule copies the module's files into dir, leaving out the git
// directory and benchmark output.
func copyModule(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" || path == "bench/out" || path == ".bench_build" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, path), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, path), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// hasTest reports whether a _test.go file in pkg's directory declares
// the top-level function name.
func hasTest(t *testing.T, pkg, name string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == name {
				return true
			}
		}
	}
	return false
}
