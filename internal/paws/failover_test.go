package paws

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/spectrum"
	"cellfi/internal/trace"
)

// failoverWorld stands up a primary and a replica database server
// over the same registry, each with an independent kill switch.
type failoverWorld struct {
	primary, replica         *httptest.Server
	primaryDown, replicaDown atomic.Bool
	primaryHits, replicaHits atomic.Int64
}

func newFailoverWorld(t *testing.T) *failoverWorld {
	t.Helper()
	reg := spectrum.NewRegistry(spectrum.EU)
	srv := NewServer(reg)
	w := &failoverWorld{}
	gate := func(down *atomic.Bool, hits *atomic.Int64) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			if down.Load() {
				http.Error(rw, "database offline", http.StatusServiceUnavailable)
				return
			}
			srv.ServeHTTP(rw, r)
		})
	}
	w.primary = httptest.NewServer(gate(&w.primaryDown, &w.primaryHits))
	w.replica = httptest.NewServer(gate(&w.replicaDown, &w.replicaHits))
	t.Cleanup(w.primary.Close)
	t.Cleanup(w.replica.Close)
	return w
}

func (w *failoverWorld) client() *Client {
	c := NewClient("", "fo-ap")
	c.Endpoints = []string{w.primary.URL, w.replica.URL}
	c.PrimaryProbeAfter = 3
	return c
}

// activeEndpoint returns the endpoint the next call will use (modulo
// a pending primary probe); URL when no endpoint list is configured.
func activeEndpoint(c *Client) string {
	if len(c.Endpoints) == 0 {
		return c.URL
	}
	c.epMu.Lock()
	defer c.epMu.Unlock()
	return c.Endpoints[c.epIdx]
}

func TestFailoverToReplicaAndBack(t *testing.T) {
	w := newFailoverWorld(t)
	c := w.client()
	loc := geo.Point{}

	if _, err := c.GetSpectrum(loc, 10); err != nil {
		t.Fatalf("healthy primary: %v", err)
	}
	if got := activeEndpoint(c); got != w.primary.URL {
		t.Fatalf("active endpoint = %q, want primary", got)
	}

	// Kill the primary: the next call fails over (default threshold 1)
	// but still surfaces the transient error for that call.
	w.primaryDown.Store(true)
	if _, err := c.GetSpectrum(loc, 10); err == nil {
		t.Fatal("call during primary outage with single-shot retry should fail")
	}
	if got := activeEndpoint(c); got != w.replica.URL {
		t.Fatalf("active endpoint after outage = %q, want replica", got)
	}
	if c.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", c.Failovers())
	}

	// Subsequent calls land on the replica and succeed; three in a row
	// earn a primary probe.
	for i := 0; i < 3; i++ {
		if _, err := c.GetSpectrum(loc, 10); err != nil {
			t.Fatalf("replica call %d: %v", i, err)
		}
	}
	replicaBefore := w.replicaHits.Load()
	primaryBefore := w.primaryHits.Load()

	// Primary recovers; the third consecutive replica success earns a
	// probe, which succeeds and fails back.
	w.primaryDown.Store(false)
	if _, err := c.GetSpectrum(loc, 10); err != nil {
		t.Fatalf("probe call: %v", err)
	}
	if w.primaryHits.Load() != primaryBefore+1 {
		t.Fatalf("probe did not reach primary (hits %d -> %d)", primaryBefore, w.primaryHits.Load())
	}
	if w.replicaHits.Load() != replicaBefore {
		t.Fatalf("probe also hit replica")
	}
	if got := activeEndpoint(c); got != w.primary.URL {
		t.Fatalf("active endpoint after recovery = %q, want primary", got)
	}
	// Failing back is not a failover.
	if c.Failovers() != 1 {
		t.Fatalf("failovers after fail-back = %d, want 1", c.Failovers())
	}
}

func TestFailedPrimaryProbeStaysOnReplica(t *testing.T) {
	w := newFailoverWorld(t)
	c := w.client()
	loc := geo.Point{}

	w.primaryDown.Store(true)
	c.GetSpectrum(loc, 10) // transient failure; advances to the replica
	for i := 0; i < 3; i++ {
		if _, err := c.GetSpectrum(loc, 10); err != nil {
			t.Fatalf("replica call %d: %v", i, err)
		}
	}
	// The earned probe hits the (still dead) primary and that call
	// fails, but the client stays homed on the replica.
	if _, err := c.GetSpectrum(loc, 10); err == nil {
		t.Fatal("probe against dead primary should surface the failure")
	}
	if got := activeEndpoint(c); got != w.replica.URL {
		t.Fatalf("active endpoint after failed probe = %q, want replica", got)
	}
	if _, err := c.GetSpectrum(loc, 10); err != nil {
		t.Fatalf("call after failed probe: %v", err)
	}
}

func TestRetryRidesThroughFailover(t *testing.T) {
	// With in-call retries enabled, a single GetSpectrum survives the
	// primary dying: attempt 1 fails on the primary, attempt 2 lands
	// on the replica.
	w := newFailoverWorld(t)
	c := w.client()
	c.Retry = RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}
	ring := trace.NewRing(16)
	c.Trace = ring

	w.primaryDown.Store(true)
	if _, err := c.GetSpectrum(geo.Point{}, 10); err != nil {
		t.Fatalf("retrying call across failover: %v", err)
	}
	recs := ring.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d trace records, want 1", len(recs))
	}
	r := recs[0]
	if r.Kind != trace.KindPAWSQuery || r.N != 4 {
		t.Fatalf("paws-query record = %v, want N=4 with endpoint arg", r)
	}
	if r.Args[1] != -1 || r.Args[2] != 2 || r.Args[3] != 1 {
		t.Fatalf("record args = %v, want success on attempt 2 via endpoint 1", r.Args)
	}
}

func TestSingleURLModeUnchanged(t *testing.T) {
	w := newFailoverWorld(t)
	c := NewClient(w.primary.URL, "fo-ap")
	ring := trace.NewRing(4)
	c.Trace = ring
	if _, err := c.GetSpectrum(geo.Point{}, 10); err != nil {
		t.Fatalf("single-URL call: %v", err)
	}
	if got := activeEndpoint(c); got != w.primary.URL {
		t.Fatalf("active endpoint = %q, want URL", got)
	}
	if r := ring.Snapshot()[0]; r.N != 3 {
		t.Fatalf("single-URL paws-query N = %d, want 3 (no endpoint arg)", r.N)
	}
}
