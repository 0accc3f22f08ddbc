// Package faults is the repo's chaos-engineering toolkit for the PAWS
// control plane. It injects the failure modes a production white-space
// database exposes an access point to — latency spikes, dropped
// connections, 5xx outages, malformed or truncated JSON, and
// clock-skewed lease expiries — behind a deterministic, seedable
// schedule so that every chaos run is reproducible byte-for-byte.
//
// The two entry points are:
//
//   - Injector, an http.RoundTripper that wraps a device's transport
//     and perturbs calls per a Schedule (scripted or seeded random);
//   - FlakyHandler, a server-side wrapper that takes a live PAWS
//     database through scripted outage windows.
//
// The regulatory invariant the package exists to test: no matter what
// the schedule does, an AP must never transmit more than
// core.VacateDeadline past its last successful database contact.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// None passes the call through untouched.
	None Kind = iota
	// Latency delays the call by Fault.Delay before forwarding it.
	Latency
	// Drop fails the call with a transport error; the request never
	// reaches the server (connection reset / refused territory).
	Drop
	// ServerError short-circuits with an HTTP 5xx (Fault.Status,
	// default 503) without reaching the server.
	ServerError
	// MalformedJSON returns HTTP 200 with a Content-Type of JSON and a
	// body that is not valid JSON.
	MalformedJSON
	// Truncate forwards the call but cuts the response body in half,
	// simulating a connection torn down mid-transfer.
	Truncate
	// ClockSkew forwards the call but rewrites every "stopTime" in the
	// JSON response to a time far in the past — the lease arrives
	// already expired, as seen from a database with a skewed clock.
	ClockSkew
)

// kindNames is the String table.
var kindNames = map[Kind]string{
	None:          "none",
	Latency:       "latency",
	Drop:          "drop",
	ServerError:   "server-error",
	MalformedJSON: "malformed-json",
	Truncate:      "truncate",
	ClockSkew:     "clock-skew",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "?"
}

// Fault is one scheduled perturbation.
type Fault struct {
	Kind Kind
	// Delay is the injected latency for Latency faults.
	Delay time.Duration
	// Status is the HTTP status for ServerError faults (default 503).
	Status int
}

// errInjectedDrop is the transport error Drop faults surface.
type errInjectedDrop struct{ call int }

func (e errInjectedDrop) Error() string {
	return fmt.Sprintf("faults: injected connection drop (call %d)", e.call)
}

// Injector is an http.RoundTripper that perturbs calls per a Schedule.
// It is safe for concurrent use; the call counter is internally
// synchronised, and the schedule is asked once per call, under the
// lock, in call order. For byte-determinism, drive it from a single
// goroutine (the PAWS client's poll loop is one).
type Injector struct {
	// Base is the wrapped transport; nil means http.DefaultTransport.
	Base http.RoundTripper
	// Schedule decides the fault for each call; nil injects nothing.
	Schedule Schedule
	// Sleep implements Latency faults; nil means time.Sleep. Virtual-
	// time tests substitute a clock advance.
	Sleep func(time.Duration)

	mu    sync.Mutex
	calls int
}

// NewInjector wraps base (nil for http.DefaultTransport) with the
// given schedule.
func NewInjector(base http.RoundTripper, sched Schedule) *Injector {
	return &Injector{Base: base, Schedule: sched}
}

// RoundTrip implements http.RoundTripper.
func (in *Injector) RoundTrip(req *http.Request) (*http.Response, error) {
	in.mu.Lock()
	call := in.calls
	in.calls++
	var f Fault
	if in.Schedule != nil {
		f = in.Schedule.FaultFor(call)
	}
	sleep := in.Sleep
	in.mu.Unlock()

	base := in.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if sleep == nil {
		sleep = time.Sleep
	}

	switch f.Kind {
	case None:
		return base.RoundTrip(req)
	case Latency:
		sleep(f.Delay)
		return base.RoundTrip(req)
	case Drop:
		drainBody(req)
		return nil, errInjectedDrop{call}
	case ServerError:
		drainBody(req)
		status := f.Status
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		return syntheticResponse(req, status, "text/plain; charset=utf-8",
			fmt.Sprintf("faults: injected outage (call %d)\n", call)), nil
	case MalformedJSON:
		drainBody(req)
		return syntheticResponse(req, http.StatusOK, "application/json",
			`{"jsonrpc":"2.0","result":{"truncated`), nil
	case Truncate:
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		return truncateBody(resp)
	case ClockSkew:
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		return skewStopTimes(resp)
	}
	return base.RoundTrip(req)
}

func drainBody(req *http.Request) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
}

func syntheticResponse(req *http.Request, status int, contentType, body string) *http.Response {
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		StatusCode:    status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {contentType}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncateBody replaces resp.Body with its first half.
func truncateBody(resp *http.Response) (*http.Response, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	cut := body[:len(body)/2]
	resp.Body = io.NopCloser(bytes.NewReader(cut))
	resp.ContentLength = int64(len(cut))
	return resp, nil
}

// skewedStopTime is what ClockSkew rewrites lease expiries to: far
// enough in the past that any sane lease arrives already expired.
const skewedStopTime = "2000-01-01T00:00:00Z"

// skewStopTimes rewrites every "stopTime" field in a JSON response
// body to skewedStopTime. Non-JSON bodies pass through untouched.
func skewStopTimes(resp *http.Response) (*http.Response, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var doc any
	if json.Unmarshal(body, &doc) == nil {
		rewriteKey(doc, "stopTime", skewedStopTime)
		if out, err := json.Marshal(doc); err == nil {
			body = out
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// rewriteKey walks a decoded JSON document and replaces every value
// under the given key.
func rewriteKey(doc any, key string, val any) {
	switch d := doc.(type) {
	case map[string]any:
		for k, v := range d {
			if k == key {
				d[k] = val
				continue
			}
			rewriteKey(v, key, val)
		}
	case []any:
		for _, v := range d {
			rewriteKey(v, key, val)
		}
	}
}
