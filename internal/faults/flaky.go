package faults

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"
)

// Window is a half-open outage interval [From, To) expressed as
// offsets from the handler's start time.
type Window struct {
	From, To time.Duration
}

// ParseWindows parses a comma-separated list of outage windows in the
// form "from-to" (Go durations), e.g. "10s-30s,2m-2m30s".
func ParseWindows(spec string) ([]Window, error) {
	var out []Window
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		fromStr, toStr, ok := strings.Cut(strings.TrimSpace(entry), "-")
		if !ok {
			return nil, fmt.Errorf("faults: bad window %q, want from-to", entry)
		}
		from, err1 := time.ParseDuration(fromStr)
		to, err2 := time.ParseDuration(toStr)
		if err1 != nil || err2 != nil || to <= from {
			return nil, fmt.Errorf("faults: bad window %q", entry)
		}
		out = append(out, Window{From: from, To: to})
	}
	return out, nil
}

// FlakyHandler wraps an http.Handler (typically a paws.Server) and
// serves scripted outage windows: requests landing inside a window get
// Status (default 503) instead of reaching the inner handler. This is
// the server-side fault surface — `cellfi db` exposes it via -flaky so a
// real `cellfi ap` process can be soak-tested against database outages.
type FlakyHandler struct {
	Inner http.Handler
	// Windows are the outage intervals, as offsets from Start.
	Windows []Window
	// Start anchors the windows; zero means the first request's time.
	Start time.Time
	// Now supplies time; nil means time.Now. Simulations override it.
	Now func() time.Time
	// Status is the outage response code; zero means 503.
	Status int

	mu sync.Mutex // guards lazy Start initialisation
}

// ServeHTTP implements http.Handler.
func (f *FlakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	if f.Now != nil {
		now = f.Now()
	}
	f.mu.Lock()
	if f.Start.IsZero() {
		f.Start = now
	}
	start := f.Start
	f.mu.Unlock()
	elapsed := now.Sub(start)
	for _, win := range f.Windows {
		if elapsed >= win.From && elapsed < win.To {
			status := f.Status
			if status == 0 {
				status = http.StatusServiceUnavailable
			}
			http.Error(w, fmt.Sprintf("faults: scripted outage (%s into run)", elapsed), status)
			return
		}
	}
	f.Inner.ServeHTTP(w, r)
}

// HandlerTransport adapts an http.Handler into an http.RoundTripper
// that serves requests in-process, with no sockets. Chaos tests wrap
// it in an Injector to drive tens of thousands of PAWS exchanges per
// second through the real wire encoding.
type HandlerTransport struct {
	Handler http.Handler
}

// RoundTrip implements http.RoundTripper.
func (t HandlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.Handler.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}
