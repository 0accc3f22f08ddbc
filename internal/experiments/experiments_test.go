package experiments

import (
	"strings"
	"testing"
	"time"

	"cellfi/internal/topo"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig1", "fig2", "fig6", "fig7", "fig8",
		"prach", "fig9a", "fig9b", "fig9c", "theorem1", "overhead",
		"reuse", "lambda", "sensing", "hopping", "hybrid", "sched", "uplink", "aggregation", "mobility"}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
		if _, ok := Get(id); !ok {
			t.Errorf("Get(%q) failed", id)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get should fail for unknown IDs")
	}
}

// Every registered experiment must run in quick mode and produce
// non-degenerate output.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes tens of seconds")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			r, _ := Get(id)
			res := r(42, true)
			if res.ID != id {
				t.Fatalf("result ID %q != %q", res.ID, id)
			}
			if res.Title == "" {
				t.Fatal("empty title")
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range res.Tables {
				out := tb.String()
				if len(out) < 20 || !strings.Contains(out, "\n") {
					t.Fatalf("degenerate table: %q", out)
				}
			}
			for _, n := range res.Notes {
				t.Log(n)
			}
		})
	}
}

func TestTable1Properties(t *testing.T) {
	res := Table1(1, true)
	out := res.Tables[0].String()
	for _, want := range []string{"OFDMA", "CSMA", "Hybrid ARQ", "180 kHz"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

// Figure 1's headline calibration targets, in quick mode.
func TestFigure1Calibration(t *testing.T) {
	res := Figure1(7, true)
	// Range series: throughput must decay with distance overall.
	var pts [][2]float64
	for _, s := range res.Series {
		if strings.HasPrefix(s.Name, "fig1a") {
			pts = s.Points
		}
	}
	if len(pts) < 10 {
		t.Fatal("fig1a series too short")
	}
	nearAvg, farAvg := 0.0, 0.0
	n := len(pts)
	for _, p := range pts[:n/4] {
		nearAvg += p[1]
	}
	for _, p := range pts[3*n/4:] {
		farAvg += p[1]
	}
	nearAvg /= float64(n / 4)
	farAvg /= float64(n - 3*n/4)
	if nearAvg <= farAvg*2 {
		t.Fatalf("throughput does not decay with distance: near %.1f far %.1f", nearAvg, farAvg)
	}
	// The far quarter spans beyond 1.1 km and still shows life.
	if farAvg <= 0 {
		t.Fatal("network dead in the far quarter; range calibration broken")
	}
}

// Figure 6 timing must satisfy the ETSI deadline.
func TestFigure6ETSI(t *testing.T) {
	res := Figure6(1, true)
	joined := strings.Join(res.Notes, " ")
	if !strings.Contains(joined, "vacated") {
		t.Fatalf("figure 6 did not vacate: %v", res.Notes)
	}
	out := res.Tables[1].String()
	if !strings.Contains(out, "met: true") {
		t.Fatalf("ETSI deadline not met:\n%s", out)
	}
}

// The Figure 9b claims, in reduced form: CellFi starves fewer clients
// than both LTE and Wi-Fi.
func TestFigure9bDirections(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system simulation")
	}
	tp := topo.Generate(topo.Paper(10, 6), 99)
	starved := map[string]float64{}
	for _, a := range fig9Arms(500*time.Millisecond, true) {
		th := a.run(nil, tp, 99, 12).samples
		if len(th) == 0 {
			t.Errorf("%s arm missing", a.name)
		}
		n := 0
		for _, v := range th {
			if v < StarveThresholdMbps {
				n++
			}
		}
		starved[a.name] = float64(n) / float64(len(th))
	}
	cf, lte, wf := starved["CellFi"], starved["LTE"], starved["802.11af"]
	if cf > lte {
		t.Errorf("CellFi starved %.2f > LTE %.2f", cf, lte)
	}
	if cf > wf {
		t.Errorf("CellFi starved %.2f > Wi-Fi %.2f", cf, wf)
	}
	if _, ok := starved["Oracle"]; !ok {
		t.Error("oracle arm missing")
	}
}
