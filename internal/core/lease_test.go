package core

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/paws"
	"cellfi/internal/spectrum"
)

// Lease lifecycle state-machine tests, plus the three distinct
// GetSpectrum failure paths the selector must tell apart: an empty
// spectra list (a valid "nothing for you" answer), an RPC error (the
// database answered with a protocol error), and an HTTP timeout (the
// database never answered).

// scriptedDB serves canned JSON-RPC responses: mode selects among a
// real server, an empty-spectra answer, an RPC error, or a stall.
// mode is mutex-guarded: a stalled handler goroutine outlives its
// client-side timeout, so the test's next setMode races its read.
type scriptedDB struct {
	inner *paws.Server
	mu    sync.Mutex
	mode  string // "real", "empty", "rpc-error", "stall"
	stall chan struct{}
}

func (d *scriptedDB) setMode(m string) {
	d.mu.Lock()
	d.mode = m
	d.mu.Unlock()
}

func (d *scriptedDB) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	mode := d.mode
	d.mu.Unlock()
	switch mode {
	case "empty":
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"jsonrpc":"2.0","result":{"timestamp":"2017-12-12T09:00:00Z","spectrumSchedules":[{"startTime":"2017-12-12T09:00:00Z","stopTime":"2017-12-12T21:00:00Z","spectra":[]}]},"id":1}`)
	case "rpc-error":
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"jsonrpc":"2.0","error":{"code":%d,"message":"outside coverage"},"id":1}`,
			paws.ErrCodeOutsideCoverage)
	case "stall":
		<-d.stall
	default:
		d.inner.ServeHTTP(w, r)
	}
}

func newScriptedFixture(t *testing.T) (*scriptedDB, *ChannelSelector) {
	t.Helper()
	reg := spectrum.NewRegistry(spectrum.EU)
	reg.LeaseDuration = 30 * time.Second
	srv := paws.NewServer(reg)
	srv.Now = func() time.Time { return t0 }
	db := &scriptedDB{inner: srv, mode: "real", stall: make(chan struct{})}
	hs := httptest.NewServer(db)
	t.Cleanup(hs.Close)
	t.Cleanup(func() { close(db.stall) })
	cl := paws.NewClient(hs.URL, "AP-SCRIPTED")
	cl.CallTimeout = 100 * time.Millisecond
	return db, NewChannelSelector(cl, geo.Point{X: 5, Y: 5}, 15)
}

func TestEmptySpectraListWithoutLease(t *testing.T) {
	db, sel := newScriptedFixture(t)
	db.setMode("empty")
	act, err := sel.Refresh(t0)
	if err == nil || !strings.Contains(err.Error(), "no usable channel") {
		t.Fatalf("empty offer should report no usable channel, got %v", err)
	}
	if act != NoChange || sel.state != StateAcquiring {
		t.Fatalf("empty offer off-channel: act=%v state=%v", act, sel.state)
	}
	// The database answered: this is contact, not a failure.
	st := sel.Stats()
	if st.Failures != 0 || !st.LastContact.Equal(t0) {
		t.Fatalf("empty answer miscounted: %+v", st)
	}
}

func TestEmptySpectraListWithdrawsLease(t *testing.T) {
	db, sel := newScriptedFixture(t)
	if act, err := sel.Refresh(t0); err != nil || act != Acquired {
		t.Fatalf("acquire: %v %v", act, err)
	}
	db.setMode("empty")
	at := t0.Add(time.Second)
	act, err := sel.Refresh(at)
	if err != nil {
		t.Fatalf("withdrawal via empty list is a valid answer: %v", err)
	}
	if act != Vacated || sel.state != StateVacated || sel.Current() != nil {
		t.Fatalf("empty offer with lease: act=%v state=%v", act, sel.state)
	}
	if sel.TransmitAllowed(at) {
		t.Fatal("radio on after withdrawal")
	}
}

func TestRPCErrorVacatesImmediately(t *testing.T) {
	db, sel := newScriptedFixture(t)
	if _, err := sel.Refresh(t0); err != nil {
		t.Fatal(err)
	}
	db.setMode("rpc-error")
	// Regulatory deny: no grace period, radio off now — even though
	// the lease itself is valid for another 29 s.
	at := t0.Add(time.Second)
	act, err := sel.Refresh(at)
	if paws.Classify(err) != paws.RegulatoryDeny {
		t.Fatalf("classification = %v, want regulatory-deny", paws.Classify(err))
	}
	if act != Vacated || sel.state != StateVacated {
		t.Fatalf("regulatory deny: act=%v state=%v", act, sel.state)
	}
	if sel.TransmitAllowed(at) {
		t.Fatal("radio on after regulatory deny")
	}
}

func TestHTTPTimeoutEntersGracePeriod(t *testing.T) {
	db, sel := newScriptedFixture(t)
	if _, err := sel.Refresh(t0); err != nil {
		t.Fatal(err)
	}
	db.setMode("stall")
	at := t0.Add(time.Second)
	act, err := sel.Refresh(at)
	if err == nil {
		t.Fatal("stalled database should time out")
	}
	if paws.Classify(err) != paws.Transient {
		t.Fatalf("timeout classified %v, want transient", paws.Classify(err))
	}
	if act != NoChange || sel.state != StateGracePeriod {
		t.Fatalf("timeout inside lease: act=%v state=%v", act, sel.state)
	}
	if !sel.TransmitAllowed(at) {
		t.Fatal("grace period should keep the radio on inside the budget")
	}
	// Recovery: the next good answer returns to Granted.
	db.setMode("real")
	if act, err := sel.Refresh(t0.Add(2 * time.Second)); err != nil || act != NoChange {
		t.Fatalf("recovery: %v %v", act, err)
	}
	if sel.state != StateGranted {
		t.Fatalf("state after recovery = %v", sel.state)
	}
}

func TestTransmitGateHoldsBetweenPolls(t *testing.T) {
	// The radio gate must shut off at the vacate budget even if
	// Refresh is never called again (a wedged poll loop must not keep
	// transmitting).
	db, sel := newScriptedFixture(t)
	if _, err := sel.Refresh(t0); err != nil {
		t.Fatal(err)
	}
	db.setMode("stall")
	if _, err := sel.Refresh(t0.Add(time.Second)); err == nil {
		t.Fatal("expected timeout")
	}
	if !sel.TransmitAllowed(t0.Add(29 * time.Second)) {
		t.Fatal("radio off inside the lease and budget")
	}
	// Lease (30 s) is the binding bound here, tighter than the 60 s
	// ETSI budget.
	if sel.TransmitAllowed(t0.Add(31 * time.Second)) {
		t.Fatal("radio on past lease expiry without contact")
	}
	if got := sel.VacateBy(); !got.Equal(t0.Add(30 * time.Second)) {
		t.Fatalf("VacateBy = %v, want t0+30s", got)
	}
}

func TestLifecycleTransitionsAndStats(t *testing.T) {
	db, sel := newScriptedFixture(t)
	var edges []string
	sel.OnTransition = func(tr Transition) { edges = append(edges, tr.String()) }

	if sel.state != StateAcquiring {
		t.Fatalf("zero state = %v, want acquiring", sel.state)
	}
	sel.Refresh(t0)                  // acquire
	sel.Refresh(t0.Add(time.Second)) // renew
	db.setMode("stall")
	sel.Refresh(t0.Add(2 * time.Second)) // fail → grace
	db.setMode("real")
	sel.Refresh(t0.Add(3 * time.Second)) // recover
	db.setMode("empty")
	sel.Refresh(t0.Add(4 * time.Second)) // withdrawn → vacated
	db.setMode("real")
	sel.Refresh(t0.Add(5 * time.Second)) // reacquire

	want := []string{
		`acquiring->granted reason="channel acquired"`,
		`granted->renewing reason="renewal poll"`,
		`renewing->granted reason="lease renewed"`,
		`granted->renewing reason="renewal poll"`,
		`renewing->grace-period reason="renewal failed"`,
		`grace-period->renewing reason="renewal poll"`,
		`renewing->granted reason="lease renewed"`,
		`granted->renewing reason="renewal poll"`,
		`renewing->vacated reason="channel withdrawn"`,
		`vacated->acquiring reason="reacquisition poll"`,
		`acquiring->granted reason="channel acquired"`,
	}
	if len(edges) != len(want) {
		t.Fatalf("got %d edges:\n%s", len(edges), strings.Join(edges, "\n"))
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edge %d = %s, want %s", i, edges[i], want[i])
		}
	}

	st := sel.Stats()
	if st.Refreshes != 6 || st.Failures != 1 || st.Acquired != 2 ||
		st.Renewed != 2 || st.GraceEntries != 1 || st.Vacated != 1 ||
		st.Transitions != uint64(len(want)) || st.State != StateGranted {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClockSkewedLeaseIsUnusable(t *testing.T) {
	// A database whose clock is skewed hands out leases that are
	// already expired; the selector must not carry one.
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"jsonrpc":"2.0","result":{"spectrumSchedules":[{"startTime":"2000-01-01T00:00:00Z","stopTime":"2000-01-01T00:00:00Z","spectra":[{"startHz":4.7e8,"stopHz":4.78e8,"maxEirpDbm":36,"channel":21}]}]},"id":1}`)
	})
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	sel := NewChannelSelector(paws.NewClient(hs.URL, "AP-SKEW"), geo.Point{}, 15)
	act, err := sel.Refresh(t0)
	if err == nil || act != NoChange || sel.Current() != nil {
		t.Fatalf("expired offer accepted: act=%v err=%v", act, err)
	}
	if sel.TransmitAllowed(t0) {
		t.Fatal("radio on from an already-expired lease")
	}
}
