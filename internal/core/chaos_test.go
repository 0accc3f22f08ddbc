package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cellfi/internal/faults"
	"cellfi/internal/geo"
	"cellfi/internal/paws"
	"cellfi/internal/spectrum"
)

// The headline robustness artifact: for randomized fault schedules the
// AP must NEVER transmit more than VacateDeadline past its last
// successful database contact (ETSI EN 301 598's 60-second budget).
//
// "Successful contact" is judged by an independent observer sitting on
// the wire between the client and the chaos injector — not by the
// selector's own bookkeeping — so a bug in the selector's lastContact
// accounting cannot quietly weaken the invariant.
//
// Scale knobs (for `make chaos` soaks):
//
//	CHAOS_SEEDS — number of seeded schedules (default 100)
//	CHAOS_STEPS — steps per schedule (default 400; one schedule
//	              always runs 10000 regardless)

// contactObserver records, in virtual time, every exchange in which
// the database coherently answered (HTTP 200, valid JSON-RPC, no
// error member) — the regulatory notion of "contact".
type contactObserver struct {
	inner http.RoundTripper
	now   func() time.Time
	last  time.Time
	n     int
}

func (o *contactObserver) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := o.inner.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if rerr != nil {
		return resp, err
	}
	var rr struct {
		Result json.RawMessage `json:"result"`
		Error  *paws.RPCError  `json:"error"`
	}
	if json.Unmarshal(body, &rr) == nil && rr.Error == nil && rr.Result != nil {
		o.last = o.now()
		o.n++
	}
	return resp, err
}

// faultLog records each fault its schedule hands the injector (the
// injector asks once per call, in call order), in the stable form the
// golden log compares; clean calls are not recorded.
type faultLog struct {
	faults.Schedule
	lines []string
}

func (l *faultLog) FaultFor(call int) faults.Fault {
	f := l.Schedule.FaultFor(call)
	switch f.Kind {
	case faults.None:
	case faults.Latency:
		l.lines = append(l.lines, fmt.Sprintf("call=%d fault=%s delay=%s", call, f.Kind, f.Delay))
	case faults.ServerError:
		l.lines = append(l.lines, fmt.Sprintf("call=%d fault=%s status=%d", call, f.Kind, f.Status))
	default:
		l.lines = append(l.lines, fmt.Sprintf("call=%d fault=%s", call, f.Kind))
	}
	return f
}

type chaosResult struct {
	transitions []string
	faultLog    []string
	stats       SelectorStats
	txSteps     int
	contacts    int
}

// render joins the deterministic artifacts into the byte-exact form
// the golden test compares.
func (r chaosResult) render() string {
	var b strings.Builder
	b.WriteString("# transitions\n")
	for _, tr := range r.transitions {
		b.WriteString(tr)
		b.WriteByte('\n')
	}
	b.WriteString("# faults\n")
	for _, f := range r.faultLog {
		b.WriteString(f)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "# stats refreshes=%d failures=%d transitions=%d acquired=%d renewed=%d switched=%d grace=%d vacated=%d tx-steps=%d contacts=%d\n",
		r.stats.Refreshes, r.stats.Failures, r.stats.Transitions,
		r.stats.Acquired, r.stats.Renewed, r.stats.Switched,
		r.stats.GraceEntries, r.stats.Vacated, r.txSteps, r.contacts)
	return b.String()
}

// runChaos drives one selector through `steps` virtual seconds of a
// seeded fault schedule, asserting the ETSI invariant at every step.
func runChaos(t *testing.T, seed int64, steps int) chaosResult {
	t.Helper()

	reg := spectrum.NewRegistry(spectrum.EU)
	// Vary which bound binds: short leases make lease expiry the
	// tight constraint, long ones make the ETSI budget the tight one.
	leases := []time.Duration{20 * time.Second, 45 * time.Second, 90 * time.Second, 2 * time.Hour}
	reg.LeaseDuration = leases[int(seed)%len(leases)]

	vnow := t0
	srv := paws.NewServer(reg)
	srv.Now = func() time.Time { return vnow }

	profileNames := faults.ProfileNames()
	prof, ok := faults.ProfileByName(profileNames[int(seed)%len(profileNames)])
	if !ok {
		t.Fatal("missing chaos profile")
	}
	obs := &contactObserver{
		inner: faults.HandlerTransport{Handler: srv},
		now:   func() time.Time { return vnow },
	}
	flog := &faultLog{Schedule: faults.NewSeeded(prof, seed)}
	inj := faults.NewInjector(obs, flog)
	inj.Sleep = func(d time.Duration) { vnow = vnow.Add(d) }

	cl := paws.NewClient("http://pawsdb.virtual/paws", fmt.Sprintf("AP-CHAOS-%d", seed))
	cl.HTTPClient = &http.Client{Transport: inj}
	cl.Retry = paws.RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    time.Second,
		Jitter:      0.5,
		Seed:        seed,
		Sleep:       func(d time.Duration) { vnow = vnow.Add(d) },
	}

	sel := NewChannelSelector(cl, geo.Point{X: 5, Y: 5}, 15)
	var res chaosResult
	sel.OnTransition = func(tr Transition) {
		res.transitions = append(res.transitions,
			fmt.Sprintf("t=+%ds %s", int(tr.At.Sub(t0)/time.Second), tr))
	}

	// Incumbent churn: a second seeded stream occasionally drops a
	// wireless mic onto the AP's channel, forcing real withdrawals.
	churn := rand.New(rand.NewSource(seed*7919 + 13))

	for step := 0; step < steps; step++ {
		vnow = vnow.Add(time.Second)
		if cur := sel.Current(); cur != nil && churn.Intn(211) == 0 {
			dur := time.Duration(30+churn.Intn(90)) * time.Second
			if err := reg.AddIncumbent(spectrum.Incumbent{
				Kind: spectrum.WirelessMic, Channel: cur.Channel,
				Location: geo.Point{X: 5, Y: 5}, ProtectRadius: 1e7,
				From: vnow, To: vnow.Add(dur),
			}); err != nil {
				t.Fatalf("seed %d step %d: churn: %v", seed, step, err)
			}
		}
		sel.Refresh(vnow)

		if sel.TransmitAllowed(vnow) {
			res.txSteps++
			// THE invariant: transmission implies fresh contact,
			// judged by the wire observer, not the selector.
			if obs.last.IsZero() {
				t.Fatalf("seed %d step %d: transmitting with no successful contact ever", seed, step)
			}
			if age := vnow.Sub(obs.last); age > VacateDeadline {
				t.Fatalf("seed %d step %d: transmitting %v past last contact (budget %v)",
					seed, step, age, VacateDeadline)
			}
			// Coherence: transmitting implies a live lease and an
			// on-air state.
			cur := sel.Current()
			if cur == nil || vnow.After(cur.Until) {
				t.Fatalf("seed %d step %d: transmitting on dead lease %+v", seed, step, cur)
			}
			switch sel.state {
			case StateGranted, StateRenewing, StateGracePeriod:
			default:
				t.Fatalf("seed %d step %d: transmitting in state %v", seed, step, sel.state)
			}
		}
	}
	res.faultLog = flog.lines
	res.stats = sel.Stats()
	res.contacts = obs.n
	return res
}

func chaosEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestETSIVacateProperty is the acceptance property: ≥100 seeded
// random fault schedules, every one holding the vacate invariant, and
// one long 10k-step schedule regardless of the CHAOS_STEPS knob.
func TestETSIVacateProperty(t *testing.T) {
	seeds := chaosEnvInt("CHAOS_SEEDS", 100)
	steps := chaosEnvInt("CHAOS_STEPS", 400)
	if testing.Short() {
		seeds, steps = 10, 300
	}
	totalTx, totalContacts := 0, 0
	for seed := 0; seed < seeds; seed++ {
		res := runChaos(t, int64(seed), steps)
		totalTx += res.txSteps
		totalContacts += res.contacts
	}
	// The run must actually exercise both sides of the gate: a
	// vacuously-silent (or vacuously-healthy) AP proves nothing.
	if totalTx == 0 {
		t.Fatal("chaos fleet never transmitted; schedules too hostile to test the invariant")
	}
	if totalContacts == 0 {
		t.Fatal("chaos fleet never reached the database")
	}
}

// TestETSIVacatePropertyLongSchedule is the 10k-step headline run on
// the nastiest profile mix, independent of the env knobs.
func TestETSIVacatePropertyLongSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("long schedule skipped in -short")
	}
	res := runChaos(t, 2, 10_000) // seed 2 selects the outage profile
	if res.txSteps == 0 || res.stats.Vacated == 0 {
		t.Fatalf("long schedule did not exercise vacate: %+v", res.stats)
	}
}

// popUpRaceTransport stages the tightest incumbent pop-up race the
// protocol allows: when armed, it lets the server render its answer
// from the pre-incumbent registry, then drops a wireless mic onto the
// AP's channel while those stale bytes are still "in flight" back to
// the client — and severs the database so no later poll can deliver
// the withdrawal. Only the ETSI budget can save the invariant.
type popUpRaceTransport struct {
	inner   http.RoundTripper
	reg     *spectrum.Registry
	now     func() time.Time
	armed   bool
	dead    bool
	victim  int
	arrival time.Time
}

func (p *popUpRaceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if p.dead {
		return nil, fmt.Errorf("database unreachable after pop-up")
	}
	resp, err := p.inner.RoundTrip(req)
	if err == nil && p.armed {
		p.armed, p.dead = false, true
		p.arrival = p.now()
		if aerr := p.reg.AddIncumbent(spectrum.Incumbent{
			Kind: spectrum.WirelessMic, Channel: p.victim,
			Location: geo.Point{X: 5, Y: 5}, ProtectRadius: 1e7,
			From: p.arrival, To: p.arrival.Add(10 * time.Minute),
		}); aerr != nil {
			return nil, fmt.Errorf("pop-up injection: %w", aerr)
		}
	}
	return resp, err
}

// TestIncumbentPopUpDuringRenewal is the lease-FSM race-window case:
// an incumbent arrives while a renewal answer is in flight, so the
// renewal "succeeds" with a stale grant of a now-occupied channel and
// the database goes dark before any poll can reveal the withdrawal.
// The selector must still cease transmission within VacateDeadline of
// the arrival — the stale contact is the last contact, so the ETSI
// budget expires exactly one deadline after the race.
func TestIncumbentPopUpDuringRenewal(t *testing.T) {
	reg := spectrum.NewRegistry(spectrum.EU)
	reg.LeaseDuration = 90 * time.Second // looser than the budget: the ETSI minute must bind

	vnow := t0
	srv := paws.NewServer(reg)
	srv.Now = func() time.Time { return vnow }

	race := &popUpRaceTransport{
		inner: faults.HandlerTransport{Handler: srv},
		reg:   reg,
		now:   func() time.Time { return vnow },
	}
	cl := paws.NewClient("http://pawsdb.virtual/paws", "AP-RACE-1")
	cl.HTTPClient = &http.Client{Transport: race}
	cl.Retry = paws.RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    time.Second,
		Seed:        1,
		Sleep:       func(d time.Duration) { vnow = vnow.Add(d) },
	}

	sel := NewChannelSelector(cl, geo.Point{X: 5, Y: 5}, 15)
	vnow = vnow.Add(time.Second)
	if act, err := sel.Refresh(vnow); err != nil || act != Acquired {
		t.Fatalf("initial acquire: act=%v err=%v", act, err)
	}
	race.victim = sel.Current().Channel

	// Arm the race: the NEXT renewal poll carries the pop-up.
	race.armed = true
	vnow = vnow.Add(time.Second)
	if act, err := sel.Refresh(vnow); err != nil || act != NoChange {
		t.Fatalf("raced renewal: act=%v err=%v", act, err)
	}
	if race.arrival.IsZero() {
		t.Fatal("race never fired: renewal exchange did not reach the transport")
	}
	// The stale answer really did land: the selector holds a "valid"
	// lease on an occupied channel, with no way to hear otherwise.
	if sel.state != StateGranted || !sel.TransmitAllowed(vnow) {
		t.Fatalf("stale renewal rejected early: state=%v — race window not exercised", sel.state)
	}

	lastTX := time.Time{}
	for step := 0; step < 300 && sel.state != StateVacated; step++ {
		vnow = vnow.Add(time.Second)
		sel.Refresh(vnow)
		if sel.TransmitAllowed(vnow) {
			lastTX = vnow
		}
	}
	if sel.state != StateVacated {
		t.Fatalf("selector never vacated after pop-up; state=%v", sel.state)
	}
	if lastTX.IsZero() {
		t.Fatal("no transmission after the race; window was vacuous")
	}
	if over := lastTX.Sub(race.arrival); over > VacateDeadline {
		t.Fatalf("transmitted %v past incumbent arrival (budget %v)", over, VacateDeadline)
	}
	if st := sel.Stats(); st.Vacated != 1 || st.GraceEntries == 0 {
		t.Fatalf("expected one grace-then-vacate after the blackout: %+v", st)
	}
}

// TestChaosDeterminism: the harness is byte-deterministic — the same
// seed yields the identical schedule, transition log and counters.
func TestChaosDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		a := runChaos(t, seed, 400).render()
		b := runChaos(t, seed, 400).render()
		if a != b {
			t.Fatalf("seed %d: chaos run not byte-deterministic:\n--- run A\n%s\n--- run B\n%s", seed, a, b)
		}
	}
}

// TestChaosGoldenTransitionLog pins seed 42's transition log to a
// committed golden file, so any change to the schedule derivation,
// retry timing or state machine shows up as a reviewable diff.
// Regenerate with CHAOS_GOLDEN_UPDATE=1 go test -run Golden ./internal/core
func TestChaosGoldenTransitionLog(t *testing.T) {
	got := runChaos(t, 42, 180).render()
	path := filepath.Join("testdata", "chaos_seed42.golden")
	if os.Getenv("CHAOS_GOLDEN_UPDATE") == "1" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with CHAOS_GOLDEN_UPDATE=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("transition log diverged from golden:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
