package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// echoHandler returns a fixed JSON document with a stopTime field, the
// shape a PAWS AVAIL_SPECTRUM_RESP carries.
var echoHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"jsonrpc":"2.0","result":{"spectrumSchedules":[{"stopTime":"2030-06-01T00:00:00Z","spectra":[{"channel":21}]}]},"id":1}`)
})

func doCall(t *testing.T, rt http.RoundTripper) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://paws.test/paws", strings.NewReader(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	return rt.RoundTrip(req)
}

// Script is an explicit per-call schedule: call i receives Script[i];
// calls past the end pass through untouched.
type Script []Fault

// FaultFor implements Schedule.
func (s Script) FaultFor(call int) Fault {
	if call < 0 || call >= len(s) {
		return Fault{Kind: None}
	}
	return s[call]
}

func TestScriptFaults(t *testing.T) {
	script := Script{
		{Kind: None},
		{Kind: ServerError, Status: 502},
		{Kind: Drop},
		{Kind: MalformedJSON},
		{Kind: Truncate},
		{Kind: ClockSkew},
	}
	inj := NewInjector(HandlerTransport{echoHandler}, script)

	// Call 0: clean.
	resp, err := doCall(t, inj)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("clean call: %v %v", resp, err)
	}
	resp.Body.Close()

	// Call 1: synthetic 502, server never reached.
	resp, err = doCall(t, inj)
	if err != nil || resp.StatusCode != 502 {
		t.Fatalf("server-error call: %v %v", resp, err)
	}
	resp.Body.Close()

	// Call 2: dropped.
	if _, err = doCall(t, inj); err == nil {
		t.Fatal("drop fault did not error")
	}

	// Call 3: 200 but invalid JSON.
	resp, err = doCall(t, inj)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("malformed call: %v %v", resp, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if json.Valid(body) {
		t.Fatalf("malformed-json fault produced valid JSON: %s", body)
	}

	// Call 4: truncated — half the real body.
	resp, err = doCall(t, inj)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if json.Valid(body) || len(body) == 0 {
		t.Fatalf("truncate fault returned usable body (%d bytes)", len(body))
	}

	// Call 5: clock-skewed — stopTime rewritten into the past.
	resp, err = doCall(t, inj)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), skewedStopTime) {
		t.Fatalf("clock-skew fault left stopTime untouched: %s", body)
	}
	if strings.Contains(string(body), "2030-06-01") {
		t.Fatalf("original stopTime survived the skew: %s", body)
	}

	// Past the script: clean again.
	resp, err = doCall(t, inj)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("past-script call: %v %v", resp, err)
	}
	resp.Body.Close()

	if got := inj.calls; got != 7 {
		t.Fatalf("calls = %d, want 7", got)
	}
}

func TestLatencyUsesInjectedSleep(t *testing.T) {
	var slept time.Duration
	inj := NewInjector(HandlerTransport{echoHandler}, Script{{Kind: Latency, Delay: 250 * time.Millisecond}})
	inj.Sleep = func(d time.Duration) { slept += d }
	resp, err := doCall(t, inj)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slept != 250*time.Millisecond {
		t.Fatalf("slept %v, want 250ms", slept)
	}
}

// TestSeededScheduleDeterministic: same seed → byte-identical fault
// sequences; different seeds diverge; FaultFor is a pure function of
// the call index.
func TestSeededScheduleDeterministic(t *testing.T) {
	prof, ok := ProfileByName("heavy")
	if !ok {
		t.Fatal("heavy profile missing")
	}
	render := func(seed int64) string {
		s := NewSeeded(prof, seed)
		var b strings.Builder
		for i := 0; i < 500; i++ {
			f := s.FaultFor(i)
			fmt.Fprintf(&b, "%d:%s:%d:%d\n", i, f.Kind, f.Delay, f.Status)
		}
		return b.String()
	}
	a, b := render(42), render(42)
	if a != b {
		t.Fatal("same seed produced different schedules")
	}
	if render(42) == render(43) {
		t.Fatal("different seeds produced identical schedules")
	}
	// Pure function: out-of-order queries agree with in-order ones.
	s := NewSeeded(prof, 42)
	f100 := s.FaultFor(100)
	_ = s.FaultFor(7)
	if got := s.FaultFor(100); got != f100 {
		t.Fatalf("FaultFor(100) unstable: %v vs %v", got, f100)
	}
}

func TestSeededScheduleRespectsProfileMix(t *testing.T) {
	prof, _ := ProfileByName("mild")
	s := NewSeeded(prof, 7)
	faulted := 0
	for i := 0; i < 2000; i++ {
		if s.FaultFor(i).Kind != None {
			faulted++
		}
	}
	// mild claims 10/100 of calls; allow generous slack.
	if faulted < 100 || faulted > 350 {
		t.Fatalf("mild profile faulted %d/2000 calls, want ~200", faulted)
	}
}

func TestSeededBurstsAreBlockCorrelated(t *testing.T) {
	prof, _ := ProfileByName("outage")
	if prof.BurstLen <= 1 {
		t.Fatal("outage profile should be bursty")
	}
	s := NewSeeded(prof, 3)
	// Every call inside one block shares the block's fault decision.
	for block := 0; block < 50; block++ {
		first := s.FaultFor(block * prof.BurstLen)
		for i := 1; i < prof.BurstLen; i++ {
			if got := s.FaultFor(block*prof.BurstLen + i); got != first {
				t.Fatalf("block %d call %d = %+v, want %+v", block, i, got, first)
			}
		}
	}
	// And across many blocks both outcomes occur.
	down, up := 0, 0
	for block := 0; block < 200; block++ {
		if s.FaultFor(block*prof.BurstLen).Kind == None {
			up++
		} else {
			down++
		}
	}
	if down == 0 || up == 0 {
		t.Fatalf("outage profile degenerate: %d down, %d up blocks", down, up)
	}
}

func TestFlakyHandlerWindows(t *testing.T) {
	wins, err := ParseWindows("10s-30s,2m-3m")
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2017, 12, 12, 9, 0, 0, 0, time.UTC)
	now := t0
	fh := &FlakyHandler{
		Inner:   echoHandler,
		Windows: wins,
		Start:   t0,
		Now:     func() time.Time { return now },
	}
	rt := HandlerTransport{fh}
	statusAt := func(offset time.Duration) int {
		now = t0.Add(offset)
		resp, err := doCall(t, rt)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		at   time.Duration
		want int
	}{
		{0, 200}, {9 * time.Second, 200},
		{10 * time.Second, 503}, {29 * time.Second, 503},
		{30 * time.Second, 200},
		{2 * time.Minute, 503}, {3 * time.Minute, 200},
	} {
		if got := statusAt(tc.at); got != tc.want {
			t.Fatalf("status at %v = %d, want %d", tc.at, got, tc.want)
		}
	}

	if _, err := ParseWindows("30s-10s"); err == nil {
		t.Fatal("inverted window accepted")
	}
	if _, err := ParseWindows("junk"); err == nil {
		t.Fatal("junk window accepted")
	}
}
