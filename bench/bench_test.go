package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

const testScale = 0.02

// inputsDigest hashes every seed-derived input the generators make:
// request bodies, notify bodies, the churn plan and the dense topology.
func inputsDigest(t *testing.T, seed int64) string {
	t.Helper()
	h := sha256.New()
	li, err := newLeanInputs(seed, 200, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range [][][]byte{li.bodies, li.notify} {
		for _, b := range set {
			h.Write(b)
			h.Write([]byte{0})
		}
	}
	plan, err := json.Marshal(li.plan)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(plan)
	tp := imTopology(8, seed)
	fmt.Fprint(h, tp.APs, tp.Clients)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	a, b, c := inputsDigest(t, 1), inputsDigest(t, 1), inputsDigest(t, 2)
	if a != b {
		t.Errorf("same seed gave different inputs: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave identical inputs")
	}
}

func TestSpecNamesAndLimits(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a legal benchmark name", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var got []string
	for _, w := range spec.Workloads {
		use(w.Name)
		got = append(got, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", got, want)
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == mSetupS && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not legal", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Error("BENCHMARK.json exceeds the list limits")
	}
}

// TestWorkloadsScaled runs every workload at -scale 0.02, untraced and
// traced, through the same entry point the command line uses. Every
// run must pass its own correctness checks, and the names it emits must
// be exactly BENCHMARK.json's.
func TestWorkloadsScaled(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	// Span files land in a scratch bench/out.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	digests := map[string]string{}
	for _, w := range workloads() {
		for trace, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			var out bytes.Buffer
			o := options{workload: w.name, seed: 3, seconds: 0.05, trace: trace, scale: testScale}
			if code := runOne(spec, w, o, 2, &out); code != 0 {
				t.Fatalf("%s -trace %d exited %d:\n%s", w.name, trace, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var ll lastLine
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&ll); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			if !ll.Correct || ll.Failed != 0 || ll.Attempted < 1 {
				t.Errorf("%s -trace %d: correct=%v attempted=%d failed=%d", w.name, trace, ll.Correct, ll.Attempted, ll.Failed)
			}
			if len(ll.Metrics) != len(list) {
				t.Errorf("%s -trace %d: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(ll.Metrics), len(list))
			}
			for _, m := range list {
				mv, ok := ll.Metrics[m.Name]
				if !ok || mv.Unit != m.Unit {
					t.Errorf("%s -trace %d: metric %s missing or unit %q != %q", w.name, trace, m.Name, mv.Unit, m.Unit)
				}
				if trace == 0 && !(mv.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, mv.Value)
				}
			}
			var d detail
			for _, l := range lines {
				if rest, ok := strings.CutPrefix(l, "#detail "); ok {
					if err := json.Unmarshal([]byte(rest), &d); err != nil {
						t.Fatal(err)
					}
				}
			}
			if trace == 0 {
				digests[w.name] = d.Digest
			} else if d.Digest != digests[w.name] {
				t.Errorf("%s: traced digest %s != untraced %s", w.name, d.Digest, digests[w.name])
			}
		}
	}
	if digests["city_diurnal"] == "" || digests["city_diurnal"] != digests["city_sharded"] {
		t.Errorf("city digests differ: direct %q, sharded %q", digests["city_diurnal"], digests["city_sharded"])
	}
}

func TestSelfTime(t *testing.T) {
	// root [0,100] has children a [10,30], b [20,50] (overlapping a),
	// c [60,70] and a stray d [90,120] that outlives it; a has child
	// e [12,18]. Covered part of root: [10,50] + [60,70] + [90,100].
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Name: "kid", Start: 10, End: 30, Parent: 1},
		{ID: 3, Name: "kid", Start: 20, End: 50, Parent: 1},
		{ID: 4, Name: "kid", Start: 60, End: 70, Parent: 1},
		{ID: 5, Name: "stray", Start: 90, End: 120, Parent: 1},
		{ID: 6, Name: "leaf", Start: 12, End: 18, Parent: 2},
	}
	want := map[string]layerTime{
		"root":  {Name: "root", Count: 1, TotalNS: 100, SelfNS: 100 - 40 - 10 - 10},
		"kid":   {Name: "kid", Count: 3, TotalNS: 20 + 30 + 10, SelfNS: (20 - 6) + 30 + 10},
		"stray": {Name: "stray", Count: 1, TotalNS: 30, SelfNS: 30},
		"leaf":  {Name: "leaf", Count: 1, TotalNS: 6, SelfNS: 6},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("got %d layers, want %d", len(got), len(want))
	}
	for _, lt := range got {
		if lt != want[lt.Name] {
			t.Errorf("%s: got %+v, want %+v", lt.Name, lt, want[lt.Name])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("got q1 %v, median %v, q3 %v", q1, median(v), q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("three values: got %v, %v", q1, q3)
	}
	if s := spread(v); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestCompare(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.00}
	for _, c := range []struct {
		m    metricSpec
		cand []float64
		want string
	}{
		{lower, []float64{1.05, 1.04, 1.06, 1.05}, vSame},
		{lower, []float64{1.20, 1.21, 1.19, 1.20}, vWorse},
		{lower, []float64{0.80, 0.81, 0.79, 0.80}, vBetter},
		{higher, []float64{1.20, 1.21, 1.19, 1.20}, vBetter},
		{higher, []float64{0.80, 0.81, 0.79, 0.80}, vWorse},
		{lower, []float64{0.7, 1.4, 0.9, 1.3}, vUnresolved}, // spread wider than the bound
		{lower, []float64{0.50, 0.90, 0.60, 0.95}, vBetter}, // wide, but every run beats every base run
	} {
		if got := judge(c.m, base, c.cand).verdict; got != c.want {
			t.Errorf("%s %v: verdict %s, want %s", c.m.Name, c.cand, got, c.want)
		}
	}

	spec := &benchSpec{EndToEnd: []metricSpec{lower}}
	mk := func(cpus int, scaled bool, failedFrac float64, vals []float64) *resultSet {
		return &resultSet{Stamp: stamp{NumCPU: cpus, GoMaxProcs: cpus, GoVersion: "go1", Scaled: scaled},
			Workloads: map[string]*workloadResult{"w": {FailedFrac: failedFrac,
				EndToEnd: map[string]*metricRuns{"wall_s": {Unit: "s", Values: vals}}}}}
	}
	if _, _, err := compareSets(spec, mk(2, false, 0, base), mk(4, false, 0, base)); err == nil {
		t.Error("differing machine stamps were compared")
	}
	if _, _, err := compareSets(spec, mk(2, false, 0, base), mk(2, true, 0, base)); err == nil {
		t.Error("a scaled result was compared")
	}
	rows, rise, err := compareSets(spec, mk(2, false, 0, base), mk(2, false, 0.01, base))
	if err != nil || len(rows) != 1 || rows[0].verdict != vSame || len(rise) != 1 {
		t.Errorf("rows %+v, failed_frac rises %v, err %v", rows, rise, err)
	}
}

func TestClosedLoopIssuesEveryRequestOnce(t *testing.T) {
	const n = 1000
	seen := make([]int32, n)
	lat := closedLoop(4, n, nil, func(_ int, k int64) { seen[k]++ }) // distinct k per call: no race
	if len(lat) != n {
		t.Fatalf("%d latencies for %d requests", len(lat), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("request %d issued %d times", k, c)
		}
	}
}
