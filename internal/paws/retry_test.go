package paws

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/spectrum"
)

// newTestClient wires a client to a handler with retries enabled and
// sleeps stubbed out (recorded, not slept).
func newTestClient(t *testing.T, h http.Handler, attempts int) (*Client, *[]time.Duration) {
	t.Helper()
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	var slept []time.Duration
	c := NewClient(hs.URL, "AP-RETRY")
	c.Retry = RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    time.Second,
		Jitter:      0.5,
		Seed:        42,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	return c, &slept
}

func TestRetryRecoversFromTransient5xx(t *testing.T) {
	real := NewServer(spectrum.NewRegistry(spectrum.EU))
	var hits atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "outage", http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	})
	c, slept := newTestClient(t, h, 4)
	if _, err := c.Init(geo.Point{}); err != nil {
		t.Fatalf("Init should survive two 503s: %v", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("server hit %d times, want 3", hits.Load())
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(*slept))
	}
	// Exponential growth modulo jitter: second wait drawn from a
	// doubled step.
	for i, d := range *slept {
		if d <= 0 {
			t.Fatalf("backoff %d = %v", i, d)
		}
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	var hits atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "outage", http.StatusInternalServerError)
	})
	c, _ := newTestClient(t, h, 3)
	_, err := c.Init(geo.Point{})
	if err == nil {
		t.Fatal("persistent 500 should fail")
	}
	if hits.Load() != 3 {
		t.Fatalf("server hit %d times, want 3", hits.Load())
	}
	var pe *Error
	if !errors.As(err, &pe) || pe.Class != Transient || pe.Attempts != 3 {
		t.Fatalf("error = %v, want Transient after 3 attempts", err)
	}
}

func TestNoRetryOnFatal4xx(t *testing.T) {
	var hits atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "nope", http.StatusBadRequest)
	})
	c, slept := newTestClient(t, h, 4)
	_, err := c.Init(geo.Point{})
	if Classify(err) != Fatal {
		t.Fatalf("HTTP 400 classified %v, want fatal", Classify(err))
	}
	if hits.Load() != 1 || len(*slept) != 0 {
		t.Fatalf("fatal error retried: %d hits", hits.Load())
	}
}

func TestNoRetryOnRegulatoryDeny(t *testing.T) {
	var hits atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"jsonrpc":"2.0","error":{"code":%d,"message":"outside coverage"},"id":1}`,
			ErrCodeOutsideCoverage)
	})
	c, _ := newTestClient(t, h, 4)
	_, err := c.GetSpectrum(geo.Point{}, 15)
	if Classify(err) != RegulatoryDeny {
		t.Fatalf("outside-coverage classified %v, want regulatory-deny", Classify(err))
	}
	if hits.Load() != 1 {
		t.Fatalf("regulatory deny retried: %d hits", hits.Load())
	}
	// The PAWS code must still be reachable through the wrapper.
	var rpc *RPCError
	if !errors.As(err, &rpc) || rpc.Code != ErrCodeOutsideCoverage {
		t.Fatalf("RPCError not reachable via errors.As: %v", err)
	}
}

// A rejected attempt's partial decode must not reach a successful
// retry's answer: attempt 1 lists channel 21 but mistypes its
// timestamp (a transient decode error), attempt 2 lists no schedules,
// so the answer offers no channel.
func TestRetryDiscardsRejectedAttempt(t *testing.T) {
	bodies := []string{
		`{"jsonrpc":"2.0","result":{"spectrumSchedules":[{"spectra":[{"startHz":4.7e8,"stopHz":4.78e8,"maxEirpDbm":36,"channel":21}]}],"timestamp":12},"id":1}`,
		`{"jsonrpc":"2.0","result":{"timestamp":"2017-12-12T09:00:00Z"},"id":2}`,
	}
	var hits atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, bodies[min(int(hits.Add(1)), len(bodies))-1])
	})
	c, _ := newTestClient(t, h, 2)
	resp, err := c.GetSpectrum(geo.Point{}, 15)
	if err != nil {
		t.Fatalf("second attempt should succeed: %v", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("server hit %d times, want 2", hits.Load())
	}
	if ch := resp.Channels(); len(ch) != 0 {
		t.Fatalf("answer offers %v from the rejected attempt, want no channel", ch)
	}
}

// The same for a result the scanner never takes: attempt 1's
// INIT_RESP lists a ruleset but mistypes its polling period (a
// transient decode error after a partial decode), attempt 2 lists
// none, so the answer holds none.
func TestRetryDiscardsRejectedInit(t *testing.T) {
	bodies := []string{
		`{"jsonrpc":"2.0","result":{"rulesetInfos":[{"authority":"gb","maxPollingSecs":"soon"}]},"id":1}`,
		`{"jsonrpc":"2.0","result":{},"id":2}`,
	}
	var hits atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, bodies[min(int(hits.Add(1)), len(bodies))-1])
	})
	c, _ := newTestClient(t, h, 2)
	resp, err := c.Init(geo.Point{})
	if err != nil {
		t.Fatalf("second attempt should succeed: %v", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("server hit %d times, want 2", hits.Load())
	}
	if resp.RulesetInfos != nil {
		t.Fatalf("answer holds %v from the rejected attempt, want no ruleset", resp.RulesetInfos)
	}
}

func TestOversizedResponseRejected(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"jsonrpc":"2.0","result":"`))
		io.Copy(w, strings.NewReader(strings.Repeat("x", maxResponseBytes+100)))
		w.Write([]byte(`","id":1}`))
	})
	c, _ := newTestClient(t, h, 1)
	_, err := c.Init(geo.Point{})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized response accepted: %v", err)
	}
}

func TestNonJSONContentTypeRejected(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, "<html>proxy error page</html>")
	})
	c, _ := newTestClient(t, h, 1)
	_, err := c.Init(geo.Point{})
	if err == nil || !strings.Contains(err.Error(), "content type") {
		t.Fatalf("HTML response accepted: %v", err)
	}
	if Classify(err) != Transient {
		t.Fatalf("content-type error classified %v, want transient", Classify(err))
	}
}

func TestCallTimeoutBoundsSlowDatabase(t *testing.T) {
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	})
	c, _ := newTestClient(t, h, 1)
	// Registered after newTestClient's hs.Close so it runs first
	// (LIFO): the blocked handler must return before Close can.
	t.Cleanup(func() { close(release) })
	c.CallTimeout = 50 * time.Millisecond
	start := time.Now()
	_, err := c.Init(geo.Point{})
	if err == nil {
		t.Fatal("stalled database should time the call out")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("call took %v despite 50ms deadline", elapsed)
	}
	if Classify(err) != Transient {
		t.Fatalf("timeout classified %v, want transient", Classify(err))
	}
}

func TestBackoffShape(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	// Jitter 0: deterministic doubling capped at MaxDelay.
	for i, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	} {
		if got := p.backoff(i+1, 0.99); got != want {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, want)
		}
	}
	// Jitter 1, u=0 → zero delay floor; u→1 approaches the full step.
	p.Jitter = 1
	if got := p.backoff(1, 0); got != 0 {
		t.Fatalf("full-jitter floor = %v, want 0", got)
	}
	// Huge attempt index must not overflow into a negative delay.
	if got := p.backoff(200, 0.5); got <= 0 || got > time.Second {
		t.Fatalf("overflow backoff = %v", got)
	}
}

func TestClassifyDefaults(t *testing.T) {
	if Classify(errors.New("some net glitch")) != Transient {
		t.Fatal("unknown errors should default to transient")
	}
	if Classify(&RPCError{Code: ErrCodeUnsupported, Message: "x"}) != Fatal {
		t.Fatal("unsupported-method should be fatal")
	}
	if Classify(&RPCError{Code: -999, Message: "x"}) != Fatal {
		t.Fatal("unknown RPC code should be fatal")
	}
}
