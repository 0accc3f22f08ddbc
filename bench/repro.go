package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"cellfi/internal/experiments"
)

// reproInst is the repro_full workload: the paper reproduction a user
// runs through cmd/experiments — every experiment ID, full mode, fleet
// workers = GOMAXPROCS. One op is one experiment; one block is one
// pass over all of them.
type reproInst struct {
	e     *env
	ids   []string
	quick bool

	passDigests []string
	last        map[string]experiments.Result
	// per-pass runner telemetry, folded from experiments.DrainReports.
	runs      []float64 // fleet runs per pass
	events    []float64 // sim events per pass
	runWallMS float64   // Σ run wall, all passes
	evWallMS  float64   // Σ run wall of runs that fired events
	slotMS    float64   // Σ campaign wall × workers
	perID     map[string][]float64
}

// hostTimed lists experiments whose tables report host timing and so
// cannot enter the determinism digest.
var hostTimed = map[string]bool{"prach": true}

func setupRepro(e *env) (instance, error) {
	in := &reproInst{e: e, ids: experiments.IDs(), quick: e.scale < 1,
		perID: map[string][]float64{}}
	experiments.SetWorkers(e.procs)
	for _, id := range in.ids {
		if _, ok := experiments.Get(id); !ok {
			return nil, fmt.Errorf("experiment %q listed but not registered", id)
		}
	}
	return in, nil
}

// warm is one pass in quick mode: it fills the lazily built tables (CQI
// thresholds, ziggurat layers, FFT twiddles) the timed passes share.
// Scaled runs skip it; their timed passes are quick ones themselves.
func (in *reproInst) warm() {
	if in.quick {
		return
	}
	for _, id := range in.ids {
		run, _ := experiments.Get(id)
		run(in.e.seed, true)
	}
	experiments.DrainReports()
}

func (in *reproInst) block(run int32, lat []int64) []int64 {
	sb := in.e.tr.buf()
	pass := sb.open()
	p0 := time.Now()
	h := sha256.New()
	in.last = make(map[string]experiments.Result, len(in.ids))
	for _, id := range in.ids {
		fn, _ := experiments.Get(id)
		t0 := time.Now()
		res := fn(in.e.seed, in.quick)
		t1 := time.Now()
		lat = append(lat, t1.Sub(t0).Nanoseconds())
		sb.add("experiments."+id, pass, run, t0, t1)
		if run > 0 {
			in.perID[id] = append(in.perID[id], t1.Sub(t0).Seconds())
		}
		in.last[id] = res
		if !hostTimed[id] {
			for _, tb := range res.Tables {
				h.Write([]byte(tb.String()))
			}
		}
	}
	sb.close(pass, "bench.pass", 0, run, p0, time.Now())

	reports := experiments.DrainReports()
	if run <= 0 {
		return lat // the untraced reference pass of a traced run
	}
	var runs, events float64
	for _, rep := range reports {
		runs += float64(len(rep.Runs))
		events += float64(rep.TotalSimEvents)
		in.slotMS += rep.WallMS * float64(rep.Workers)
		for _, rr := range rep.Runs {
			in.runWallMS += rr.WallMS
			if rr.SimEvents > 0 {
				in.evWallMS += rr.WallMS
			}
		}
	}
	in.runs = append(in.runs, runs)
	in.events = append(in.events, events)
	in.passDigests = append(in.passDigests, fmt.Sprintf("%x", h.Sum(nil)[:8]))
	return lat
}

func (in *reproInst) verify() verdict {
	var v verdict
	v.digest = in.passDigests[0]
	for i, d := range in.passDigests[1:] {
		v.check(d == v.digest, "pass %d table digest %s differs from pass 1 %s", i+2, d, v.digest)
	}
	if in.quick {
		return v // the scorecard is stated for full mode
	}
	in.scorecard(&v)
	return v
}

// scorecard asserts the EXPERIMENTS.md headline rows the reproduction
// must keep, with tolerances wide enough for any seed.
func (in *reproInst) scorecard(v *verdict) {
	tbl := func(id string, table int, row, col string) float64 {
		res := in.last[id]
		if table >= len(res.Tables) {
			return nan
		}
		t := res.Tables[table]
		ci := -1
		for i, h := range t.Headers {
			if h == col {
				ci = i
			}
		}
		for _, r := range t.Rows {
			if ci >= 0 && ci < len(r) && r[0] == row {
				return leadingFloat(r[ci])
			}
		}
		return nan
	}
	// The comparisons below are false on NaN, so a missing row fails.
	rng := tbl("fig1", 0, "Range (urban)", "Measured")
	v.check(rng >= 1.2 && rng <= 1.8, "fig1 range %.2f km outside 1.2-1.8", rng)
	cov := tbl("fig1", 0, "Locations with >= 1 Mbps", "Measured")
	v.check(cov >= 85, "fig1 locations >= 1 Mbps %.1f%% < 85%%", cov)

	vac := tbl("fig6", 1, "DB change -> radio off", "Measured")
	v.check(vac >= 0 && vac <= 60, "fig6 vacate %.0f s outside 0-60", vac)

	w, l, c := tbl("fig9a", 0, "14.00", "802.11af"), tbl("fig9a", 0, "14.00", "LTE"), tbl("fig9a", 0, "14.00", "CellFi")
	v.check(c > l && c > w, "fig9a coverage at 14 APs: CellFi %.1f, LTE %.1f, 802.11af %.1f", c, l, w)

	w, l, c = tbl("fig9b", 0, "Starved", "802.11af"), tbl("fig9b", 0, "Starved", "LTE"), tbl("fig9b", 0, "Starved", "CellFi")
	v.check(c <= 0.5*w && c <= 0.5*l, "fig9b starved: CellFi %.1f%% not half of 802.11af %.1f%% and LTE %.1f%%", c, w, l)

	w, c = tbl("fig9c", 0, "Median (s)", "802.11af"), tbl("fig9c", 0, "Median (s)", "CellFi")
	v.check(c < w, "fig9c median page load: CellFi %.2f s, 802.11af %.2f s", c, w)

	ov := tbl("overhead", 0, "CQI mode 3-0 uplink overhead", "Computed")
	v.check(ov == 10, "overhead CQI signalling %.2f kbps != 10.00", ov)

	th := in.last["theorem1"]
	ok := len(th.Tables) > 0 && len(th.Tables[0].Rows) > 0
	if ok {
		for _, r := range th.Tables[0].Rows {
			rounds, bound := leadingFloat(r[3]), leadingFloat(r[4])
			ok = ok && rounds > 0 && rounds < bound
		}
	}
	v.check(ok, "theorem1: measured rounds not within (0, bound) on every row")
}

var nan = math.NaN()

// leadingFloat parses the number a table cell starts with ("1.50 km",
// "95.95%", "1s"); NaN when there is none.
func leadingFloat(s string) float64 {
	end := 0
	for end < len(s) && strings.ContainsRune("+-.0123456789", rune(s[end])) {
		end++
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return nan
	}
	return v
}

func (in *reproInst) layers(r *runResult) map[string]float64 {
	m := map[string]float64{
		"runner.runs":      median(in.runs),
		"sim.events_fired": median(in.events),
	}
	if in.slotMS > 0 {
		m["runner.worker_util"] = in.runWallMS / in.slotMS
	}
	var ev float64
	for _, x := range in.events {
		ev += x
	}
	if ev > 0 {
		m["sim.ns_per_event"] = in.evWallMS * 1e6 / ev
	}
	var other float64
	named := map[string]bool{"fig9a": true, "fig9b": true, "fig9c": true, "prach": true, "fig2": true}
	for id, secs := range in.perID {
		if named[id] {
			m["experiments."+id+"_s"] = median(secs)
		} else {
			other += median(secs)
		}
	}
	m["experiments.other_s"] = other
	e := in.e
	mergeInto(m, kernelsSim(e), kernelsLTE(e), kernelsWiFi(e), kernelsCore(e), kernelsObs(e))
	return m
}

func (in *reproInst) close() { experiments.SetWorkers(0) }
