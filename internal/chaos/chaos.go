// Package chaos is the world-level fault plane: where internal/faults
// perturbs individual HTTP exchanges, chaos perturbs the *scenario* —
// access points crash and restart cold, wireless-mic storms force
// mid-run channel evacuations through spectrum.Registry epoch bumps,
// radios brown out, the PAWS primary dies and the fleet fails over to
// a replica, and per-AP clocks skew. Every schedule is derived
// deterministically from Config.Seed, so a chaos run is as replayable
// as any other scenario in the repo.
//
// A World drives a fleet of real core.ChannelSelector + paws.Client
// stacks against a pawsdb-backed server in virtual time (one step =
// one second), with the online invariant.Checker watching the merged
// flight-recorder stream. APs poll concurrently within a step — the
// database, lease store and cache see real contention under -race —
// while the step barrier keeps the trace feed and registry mutation
// deterministic and race-free.
//
// The non-goal is subtlety: incumbent protection contours cover the
// whole world (every AP on the channel must move) and outages hit
// every AP at once. The watchdog is proved not vacuously green by a
// mutant of the vacate gate in the repo's mutant catalogue
// (mutants_test.go), not by a switch in this package.
package chaos

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cellfi/internal/core"
	"cellfi/internal/faults"
	"cellfi/internal/geo"
	"cellfi/internal/invariant"
	"cellfi/internal/paws"
	"cellfi/internal/pawsdb"
	"cellfi/internal/spectrum"
	"cellfi/internal/trace"
)

// Virtual endpoint URLs: requests never leave the process (the
// transport routes on host), but the client's failover logic sees an
// ordered two-endpoint list like a real deployment would.
const (
	PrimaryURL = "http://paws-primary.virtual/paws"
	ReplicaURL = "http://paws-replica.virtual/paws"
)

// Config selects the fault axes of one chaos world. The zero value is
// a calm world: APs acquire, renew, and nothing goes wrong.
type Config struct {
	// Seed derives every schedule decision.
	Seed int64
	// APs is the fleet size; <= 0 means 6.
	APs int
	// Steps is the run length in virtual seconds; <= 0 means 240.
	Steps int

	// Crashes enables AP crash/restart events: a crashed AP loses its
	// radio and lease state and reacquires cold after restart.
	Crashes bool
	// Storms enables incumbent pop-up storms: wireless mics appearing
	// on in-use channels (world-covering protection contour) and
	// departing on schedule, each arrival bumping the registry epoch.
	Storms bool
	// Brownouts enables per-AP radio brownout windows during which the
	// AP cannot reach any database endpoint.
	Brownouts bool
	// Failover enables scripted primary-database outages (seed-derived
	// unless PrimaryOutages is set), forcing the fleet onto the
	// replica and back.
	Failover bool
	// MaxSkew bounds per-AP clock skew: each AP's clock runs offset
	// from the world clock by a seed-derived constant in
	// [-MaxSkew, +MaxSkew].
	MaxSkew time.Duration

	// PrimaryOutages / ReplicaOutages override the scripted outage
	// windows (offsets from the world start) of each endpoint.
	// Explicit windows apply even without Failover set.
	PrimaryOutages []faults.Window
	ReplicaOutages []faults.Window

	// LeaseDuration overrides the database lease validity; zero means
	// 90 s, short enough that renewal is always load-bearing.
	LeaseDuration time.Duration
}

func (c Config) aps() int {
	if c.APs > 0 {
		return c.APs
	}
	return 6
}

func (c Config) steps() int {
	if c.Steps > 0 {
		return c.Steps
	}
	return 240
}

func (c Config) lease() time.Duration {
	if c.LeaseDuration > 0 {
		return c.LeaseDuration
	}
	return 90 * time.Second
}

// event kinds in a plan, applied at the top of their step in slice
// order (the plan is sorted by step, stable).
const (
	evCrash = iota
	evRestart
	evStormArrive
	evStormDepart
)

type planEvent struct {
	step int
	kind int
	// ap: crashing/restarting AP, or the preferred storm target.
	ap int
	// dur: storm duration in steps (evStormArrive).
	dur int
	// id links a storm's arrival to its departure.
	id int
}

// plan is the fully pre-computed schedule of one world.
type plan struct {
	events   []planEvent
	skew     []time.Duration // per AP
	brownout [][]faults.Window
	primary  []faults.Window
	replica  []faults.Window
}

// buildPlan derives the whole schedule from the seed. All randomness
// is consumed here, before the world starts, so the run itself is
// replay-deterministic.
func buildPlan(cfg Config) plan {
	rng := rand.New(rand.NewSource(cfg.Seed*0x9e3779b9 + 0x1234))
	n, steps := cfg.aps(), cfg.steps()
	p := plan{
		skew:     make([]time.Duration, n),
		brownout: make([][]faults.Window, n),
		primary:  cfg.PrimaryOutages,
		replica:  cfg.ReplicaOutages,
	}
	if cfg.MaxSkew > 0 {
		for i := range p.skew {
			p.skew[i] = time.Duration(rng.Int63n(int64(2*cfg.MaxSkew)+1)) - cfg.MaxSkew
		}
	}
	if cfg.Crashes {
		// At least one AP always crashes (the axis must not be
		// vacuous); the rest crash with probability 1/4.
		victim := rng.Intn(n)
		for ap := 0; ap < n; ap++ {
			if ap != victim && rng.Intn(4) != 0 {
				continue
			}
			at := steps/5 + rng.Intn(maxInt(steps*3/5, 1))
			down := 10 + rng.Intn(31)
			p.events = append(p.events, planEvent{step: at, kind: evCrash, ap: ap})
			if at+down < steps {
				p.events = append(p.events, planEvent{step: at + down, kind: evRestart, ap: ap})
			}
		}
	}
	if cfg.Storms {
		storms := 2 + steps/80
		for s := 0; s < storms; s++ {
			at := 10 + rng.Intn(maxInt(steps-30, 1))
			// Mix durations around the ETSI minute so some storms only
			// clip the channel briefly and others outlive every budget.
			dur := 20 + rng.Intn(140)
			p.events = append(p.events, planEvent{
				step: at, kind: evStormArrive, ap: rng.Intn(n), dur: dur, id: s})
			if at+dur < steps {
				p.events = append(p.events, planEvent{step: at + dur, kind: evStormDepart, id: s})
			}
		}
	}
	if cfg.Brownouts {
		for ap := 0; ap < n; ap++ {
			if rng.Intn(2) != 0 {
				continue
			}
			from := time.Duration(10+rng.Intn(maxInt(steps-40, 1))) * time.Second
			// Durations straddle the ETSI minute: short brownouts ride
			// the grace period, long ones force a budget-expiry vacate
			// followed by cold reacquisition.
			p.brownout[ap] = []faults.Window{{From: from,
				To: from + time.Duration(10+rng.Intn(90))*time.Second}}
		}
	}
	if cfg.Failover && len(p.primary) == 0 {
		// Two primary outages: one short enough for the grace period,
		// one long enough that only failover keeps the fleet on air.
		a := time.Duration(steps/4) * time.Second
		b := time.Duration(steps*5/8) * time.Second
		p.primary = []faults.Window{
			{From: a, To: a + 20*time.Second},
			{From: b, To: b + 100*time.Second},
		}
	}
	sort.SliceStable(p.events, func(i, j int) bool { return p.events[i].step < p.events[j].step })
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Result is the deterministic outcome of one chaos world.
type Result struct {
	Seed  int64 `json:"seed"`
	APs   int   `json:"aps"`
	Steps int   `json:"steps"`

	// TxRecords counts radio-tx evidence records (AP-step pairs on
	// the air); Contacts counts successful lease grants/renewals.
	TxRecords int64 `json:"tx_records"`
	Contacts  int64 `json:"contacts"`

	Crashes        int    `json:"crashes"`
	Restarts       int    `json:"restarts"`
	StormArrivals  int    `json:"storm_arrivals"`
	StormDeparts   int    `json:"storm_departs"`
	Failovers      uint64 `json:"failovers"`
	Vacates        uint64 `json:"vacates"`
	GraceEntries   uint64 `json:"grace_entries"`
	SkewedAPs      int    `json:"skewed_aps"`
	BrownoutAPs    int    `json:"brownout_aps"`
	PrimaryOutages int    `json:"primary_outages"`

	// Records is how many trace records the watchdog consumed;
	// Violations how many it flagged. First is the earliest violation
	// in stream order (nil on a clean run).
	Records    int                  `json:"records"`
	Violations int                  `json:"violations"`
	First      *invariant.Violation `json:"first_violation,omitempty"`
}

// apBuf is the per-AP staging recorder: selectors and clients emit
// into it from their refresh goroutine, and the step barrier drains it
// into the merged stream in AP order. One goroutine writes at a time
// (the AP's own during refresh, the driver during drain), separated by
// the WaitGroup barrier.
type apBuf struct {
	recs []trace.Record
}

func (b *apBuf) Record(r trace.Record) { b.recs = append(b.recs, r) }

// hostRouter routes virtual-endpoint requests to the primary or
// replica handler chain.
type hostRouter struct {
	primary, replica http.RoundTripper
}

func (h hostRouter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == "paws-replica.virtual" {
		return h.replica.RoundTrip(req)
	}
	return h.primary.RoundTrip(req)
}

// brownoutGate drops every exchange while the world clock is inside
// one of the AP's brownout windows — the radio itself is out, so no
// endpoint helps.
type brownoutGate struct {
	inner   http.RoundTripper
	start   time.Time
	now     func() time.Time
	windows []faults.Window
}

func (g *brownoutGate) RoundTrip(req *http.Request) (*http.Response, error) {
	elapsed := g.now().Sub(g.start)
	for _, w := range g.windows {
		if elapsed >= w.From && elapsed < w.To {
			return nil, fmt.Errorf("chaos: radio brownout (%s into run)", elapsed)
		}
	}
	return g.inner.RoundTrip(req)
}

// ap is one fleet member's live stack.
type ap struct {
	sel  *core.ChannelSelector
	cl   *paws.Client
	buf  *apBuf
	loc  geo.Point
	skew time.Duration
	down bool
}

// Run executes one chaos world and returns its result. Every record
// the world emits is fed to the online invariant checker and, when out
// is non-nil, forwarded there too (a trace.Ring spills the stream to
// disk for `cellfi trace verify`). The watchdog's verdict lands in
// Result (Violations, First), not in the error return, which is
// reserved for harness breakage (registry rejects an incumbent, etc.).
func Run(cfg Config, out trace.Recorder) (Result, error) {
	p := buildPlan(cfg)
	n, steps := cfg.aps(), cfg.steps()
	res := Result{Seed: cfg.Seed, APs: n, Steps: steps,
		PrimaryOutages: len(p.primary)}
	for _, s := range p.skew {
		if s != 0 {
			res.SkewedAPs++
		}
	}
	for _, w := range p.brownout {
		if len(w) > 0 {
			res.BrownoutAPs++
		}
	}

	start := time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC)
	var elapsed atomic.Int64
	vnow := func() time.Time { return start.Add(time.Duration(elapsed.Load())) }

	reg := spectrum.NewRegistry(spectrum.EU)
	reg.LeaseDuration = cfg.lease()
	srv := paws.NewServerWith(pawsdb.New(reg, pawsdb.Options{}))
	srv.Now = vnow

	wrap := func(windows []faults.Window) http.RoundTripper {
		return faults.HandlerTransport{Handler: &faults.FlakyHandler{
			Inner: srv, Windows: windows, Start: start, Now: vnow,
		}}
	}
	router := hostRouter{primary: wrap(p.primary), replica: wrap(p.replica)}

	checker := &invariant.Checker{Slack: cfg.MaxSkew}
	feed := func(r trace.Record) {
		checker.Record(r)
		if out != nil {
			out.Record(r)
		}
	}

	fleet := make([]*ap, n)
	locRNG := rand.New(rand.NewSource(cfg.Seed ^ 0x5ca1ab1e))
	mkAP := func(i int) *ap {
		a := &ap{
			buf: &apBuf{},
			loc: geo.Point{X: locRNG.Float64() * 1000, Y: locRNG.Float64() * 1000},
		}
		if fleet[i] != nil { // restart: keep identity-stable fields
			a.loc, a.skew = fleet[i].loc, fleet[i].skew
		} else {
			a.skew = p.skew[i]
		}
		a.cl = paws.NewClient("", fmt.Sprintf("AP-CHAOS-%d-%03d", cfg.Seed, i))
		a.cl.Endpoints = []string{PrimaryURL, ReplicaURL}
		a.cl.HTTPClient = &http.Client{Transport: &brownoutGate{
			inner: router, start: start, now: vnow, windows: p.brownout[i]}}
		a.cl.Retry = paws.RetryPolicy{
			MaxAttempts: 2,
			Seed:        cfg.Seed<<8 + int64(i) + 1,
			Sleep:       func(time.Duration) {}, // retries are instant in virtual time
		}
		a.sel = core.NewChannelSelector(a.cl, a.loc, 15)
		a.sel.Trace, a.sel.TraceAP = a.buf, int32(i)
		return a
	}
	for i := range fleet {
		fleet[i] = mkAP(i)
	}

	// retire folds a selector's lifetime counters into the result
	// (called when an AP crashes and once per AP at the end).
	retire := func(a *ap) {
		st := a.sel.Stats()
		res.Contacts += int64(st.Acquired + st.Renewed + st.Switched)
		res.Vacates += st.Vacated
		res.GraceEntries += st.GraceEntries
		res.Failovers += a.cl.Failovers()
	}

	// stormTarget picks the channel a storm lands on: the preferred
	// AP's current channel, else the first on-air AP scanning onward,
	// else the bottom of the EU plan.
	stormTarget := func(pref int) int {
		for k := 0; k < n; k++ {
			a := fleet[(pref+k)%n]
			if !a.down && a.sel.Current() != nil {
				return a.sel.Current().Channel
			}
		}
		first, _ := spectrum.EU.ChannelRange()
		return first
	}

	stormChan := map[int]int{} // storm id → channel
	nextEv := 0
	for step := 1; step <= steps; step++ {
		elapsed.Store(int64(step) * int64(time.Second))
		now := vnow()

		// 1. Apply the step's scheduled world events.
		for nextEv < len(p.events) && p.events[nextEv].step <= step {
			ev := p.events[nextEv]
			nextEv++
			switch ev.kind {
			case evCrash:
				a := fleet[ev.ap]
				if a.down {
					break
				}
				retire(a)
				a.down = true
				a.sel, a.cl = nil, nil
				res.Crashes++
				feed(trace.Record{T: now.UnixNano(), AP: int32(ev.ap),
					Kind: trace.KindAPLife, N: 1})
			case evRestart:
				if !fleet[ev.ap].down {
					break
				}
				fleet[ev.ap] = mkAP(ev.ap)
				res.Restarts++
				feed(trace.Record{T: now.UnixNano(), AP: int32(ev.ap),
					Kind: trace.KindAPLife, N: 1, Args: [trace.MaxArgs]int64{1}})
			case evStormArrive:
				ch := stormTarget(ev.ap)
				inc := spectrum.Incumbent{
					Kind: spectrum.WirelessMic, Channel: ch,
					Location: geo.Point{X: 500, Y: 500}, ProtectRadius: 1e7,
					From: now, To: now.Add(time.Duration(ev.dur) * time.Second),
				}
				if err := reg.AddIncumbent(inc); err != nil {
					return res, fmt.Errorf("chaos: storm %d: %w", ev.id, err)
				}
				stormChan[ev.id] = ch
				res.StormArrivals++
				feed(trace.Record{T: now.UnixNano(), AP: -1, Kind: trace.KindIncumbent,
					N: 3, Args: [trace.MaxArgs]int64{int64(ch), 1, int64(spectrum.WirelessMic)}})
			case evStormDepart:
				ch, ok := stormChan[ev.id]
				if !ok {
					break
				}
				delete(stormChan, ev.id)
				res.StormDeparts++
				feed(trace.Record{T: now.UnixNano(), AP: -1, Kind: trace.KindIncumbent,
					N: 3, Args: [trace.MaxArgs]int64{int64(ch), 0, int64(spectrum.WirelessMic)}})
			}
		}

		// 2. Every living AP polls concurrently — this is where the
		// server, lease store and cache see real contention.
		var wg sync.WaitGroup
		for _, a := range fleet {
			if a.down {
				continue
			}
			wg.Add(1)
			go func(a *ap) {
				defer wg.Done()
				a.sel.Refresh(now.Add(a.skew))
			}(a)
		}
		wg.Wait()

		// 3. Drain per-AP staging buffers in AP order (deterministic
		// single-threaded feed), then emit on-air evidence.
		for _, a := range fleet {
			if a.down {
				continue
			}
			for _, r := range a.buf.recs {
				feed(r)
			}
			a.buf.recs = a.buf.recs[:0]
		}
		for i, a := range fleet {
			if a.down {
				continue
			}
			apNow := now.Add(a.skew)
			if cur := a.sel.Current(); cur != nil && a.sel.TransmitAllowed(apNow) {
				res.TxRecords++
				feed(trace.Record{T: apNow.UnixNano(), AP: int32(i),
					Kind: trace.KindRadioTX, N: 1,
					Args: [trace.MaxArgs]int64{int64(cur.Channel)}})
			}
		}
	}

	for _, a := range fleet {
		if !a.down {
			retire(a)
		}
	}
	res.Records = checker.Records()
	res.Violations = checker.Total()
	res.First = checker.First()
	return res, nil
}
