package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"cellfi/internal/paws"
	"cellfi/internal/spectrum"
	"cellfi/internal/trace"
)

// TestSmoke runs every verb in-process: -h, an unknown flag, a minimal
// good run, and the bad values each verb refuses with one stderr line.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	share := func(t int64, held int64) trace.Record {
		return trace.Record{T: t, AP: 0, Kind: trace.KindIMShare, N: 3, Args: [trace.MaxArgs]int64{1, held, 1}}
	}
	streamA := writeTrace(t, dir, "a.trace", share(1e9, 1), share(2e9, 1))
	streamB := writeTrace(t, dir, "b.trace", share(1e9, 1), share(2e9, 2))
	// A radio on the air with no lease ever granted breaks the catalog.
	illegal := writeTrace(t, dir, "illegal.trace",
		trace.Record{T: 1e9, AP: 0, Kind: trace.KindRadioTX, N: 1, Args: [trace.MaxArgs]int64{30}})
	db, _ := pawsWire(t, 0)

	cases := []struct {
		args      []string
		want      int
		oneLine   bool // the refusal is exactly one stderr line
		cancelled bool // run under an already-cancelled context
	}{
		{args: nil, want: exitUsage},
		{args: []string{"bogus"}, want: exitUsage, oneLine: true},
		{args: []string{"-h"}, want: 0},
		{args: []string{"-bogus", "sim"}, want: exitUsage},
		{args: []string{"-cpuprofile", filepath.Join(dir, "no", "such", "cpu.out"), "map"}, want: exitFailure, oneLine: true},

		{args: []string{"sim", "-h"}, want: 0},
		{args: []string{"sim", "-bogus"}, want: exitUsage},
		{args: []string{"sim", "-aps", "2", "-clients", "1", "-epochs", "1"}, want: 0},
		{args: []string{"sim", "-invariants", "-trials", "2", "-epochs", "4", "-aps", "4"}, want: 0},
		{args: []string{"sim", "-aps", "2", "-clients", "1", "-epochs", "1"}, want: exitFailure, oneLine: true, cancelled: true},
		{args: []string{"sim", "-scheme", "wimax"}, want: exitUsage, oneLine: true},
		{args: []string{"sim", "-aps", "0"}, want: exitUsage, oneLine: true},
		{args: []string{"sim", "lte"}, want: exitUsage, oneLine: true},

		{args: []string{"sweep", "-h"}, want: 0},
		{args: []string{"sweep", "-bogus"}, want: exitUsage},
		{args: []string{"sweep", "-schemes", "lte", "-aps", "2", "-clients", "1", "-trials", "1", "-epochs", "1"}, want: 0},
		{args: []string{"sweep", "-aps", "6,0"}, want: exitUsage, oneLine: true},
		{args: []string{"sweep", "-bw", "7"}, want: exitUsage, oneLine: true},

		{args: []string{"map", "-h"}, want: 0},
		{args: []string{"map", "-bogus"}, want: exitUsage},
		{args: []string{"map", "-aps", "2", "-clients", "1", "-epochs", "1", "-cols", "8", "-rows", "4"}, want: 0},
		{args: []string{"map", "-subchannel", "99"}, want: exitUsage, oneLine: true},
		{args: []string{"map", "-subchannel", "-1"}, want: exitUsage, oneLine: true},

		{args: []string{"experiments", "-h"}, want: 0},
		{args: []string{"experiments", "-bogus"}, want: exitUsage},
		{args: []string{"experiments", "-id", "overhead", "-quick"}, want: 0},
		{args: []string{"experiments", "-id", "overhead", "-quick"}, want: exitFailure, oneLine: true, cancelled: true},
		{args: []string{"experiments", "-id", "fig99"}, want: exitUsage, oneLine: true},

		{args: []string{"trace", "-h"}, want: 0},
		{args: []string{"trace", "dump", "-bogus", streamA}, want: exitUsage},
		{args: []string{"trace", "info", streamA}, want: 0},
		{args: []string{"trace", "timeline", streamA}, want: 0},
		{args: []string{"trace", "dump", "-kind", "im-share", streamA}, want: 0},
		{args: []string{"trace", "diff", streamA, streamA}, want: 0},
		{args: []string{"trace", "diff", streamA, streamB}, want: exitFailure},
		{args: []string{"trace", "verify", streamA}, want: 0},
		{args: []string{"trace", "verify", illegal}, want: exitFailure},
		{args: []string{"trace", "info"}, want: exitUsage, oneLine: true},
		{args: []string{"trace", "info", filepath.Join(dir, "missing.trace")}, want: exitFailure, oneLine: true},

		{args: []string{"ap", "-h"}, want: 0},
		{args: []string{"ap", "-bogus"}, want: exitUsage},
		{args: []string{"ap", "-db", db.URL, "-poll", "10ms", "-duration", "1ms"}, want: 0},
		{args: []string{"ap", "-poll", "0"}, want: exitUsage, oneLine: true},
		{args: []string{"ap", "-poll", "-1s"}, want: exitUsage, oneLine: true},
		{args: []string{"ap", "-chaos-profile", "bogus"}, want: exitUsage, oneLine: true},

		{args: []string{"db", "-h"}, want: 0},
		{args: []string{"db", "-bogus"}, want: exitUsage},
		{args: []string{"db", "-addr", "127.0.0.1:0", "-block", "30", "-mic", "31:5"}, want: 0, cancelled: true},
		{args: []string{"db", "-flaky", "0s-1h", "-flaky-status", "42"}, want: exitUsage, oneLine: true},
		{args: []string{"db", "-flaky", "0s-1h", "-flaky-status", "200"}, want: exitUsage, oneLine: true},
		{args: []string{"db", "-flaky", "1h-0s"}, want: exitUsage, oneLine: true},
		{args: []string{"db", "-block", "99"}, want: exitUsage, oneLine: true},
		{args: []string{"db", "-mic", "30:0"}, want: exitUsage, oneLine: true},
		{args: []string{"db", "-domain", "UK"}, want: exitUsage, oneLine: true},

		{args: []string{"load", "-h"}, want: 0},
		{args: []string{"load", "-bogus"}, want: exitUsage},
		{args: []string{"load", "-clients", "10", "-requests", "100", "-incumbents", "4"}, want: 0},
		{args: []string{"load", "-clients", "0"}, want: exitUsage, oneLine: true},
		{args: []string{"load", "-requests", "0"}, want: exitUsage, oneLine: true},
		{args: []string{"load", "-incumbents", "0"}, want: exitUsage, oneLine: true},
		{args: []string{"load", "-region-km", "-1"}, want: exitUsage, oneLine: true},
		{args: []string{"load", "-qps", "-1"}, want: exitUsage, oneLine: true},
		{args: []string{"load", "-outages", "junk"}, want: exitUsage, oneLine: true},

		{args: []string{"metro", "-h"}, want: 0},
		{args: []string{"metro", "-bogus"}, want: exitUsage},
		{args: []string{"metro", "-epochs", "1"}, want: 0},
		{args: []string{"metro", "-shards", "0"}, want: exitUsage, oneLine: true},
		{args: []string{"metro", "-epochs", "0"}, want: exitUsage, oneLine: true},
	}
	for _, c := range cases {
		ctx, cancel := context.WithCancel(context.Background())
		if c.cancelled {
			cancel()
		}
		var stdout, stderr bytes.Buffer
		got := run(ctx, c.args, &stdout, &stderr)
		cancel()
		line := "cellfi " + strings.Join(c.args, " ")
		if got != c.want {
			t.Errorf("%s = %d, want %d; stderr:\n%s", line, got, c.want, stderr.String())
			continue
		}
		if c.oneLine && strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%s: want one stderr line, got:\n%s", line, stderr.String())
		}
	}
}

// TestRootProfileFlags checks the root profile flags write non-empty
// profiles around whichever verb runs.
func TestRootProfileFlags(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out"), filepath.Join(dir, "trace.out")}
	args := []string{"-cpuprofile", paths[0], "-memprofile", paths[1], "-trace", paths[2],
		"map", "-aps", "2", "-clients", "1", "-epochs", "1", "-cols", "8", "-rows", "4"}
	var stderr bytes.Buffer
	if code := run(context.Background(), args, io.Discard, &stderr); code != 0 {
		t.Fatalf("run = %d; stderr:\n%s", code, stderr.String())
	}
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestStartNoop checks that with every profile path empty nothing is
// started and the stop function writes nothing.
func TestStartNoop(t *testing.T) {
	var stderr bytes.Buffer
	stop, err := startProfiles("", "", "", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if stderr.Len() != 0 {
		t.Errorf("stop wrote %q", stderr.String())
	}
}

// TestStartBadPath checks that an unwritable profile path is an error,
// and that a CPU profile already started is stopped on the way out.
func TestStartBadPath(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "no", "such", "dir", "out")
	if _, err := startProfiles(bad, "", "", io.Discard); err == nil {
		t.Fatal("unwritable -cpuprofile path did not error")
	}
	if _, err := startProfiles(filepath.Join(dir, "cpu.out"), "", bad, io.Discard); err == nil {
		t.Fatal("unwritable -trace path did not error")
	}
	// A CPU profile left running would refuse this one.
	stop, err := startProfiles(filepath.Join(dir, "cpu2.out"), "", "", io.Discard)
	if err != nil {
		t.Fatalf("CPU profile still running after a failed start: %v", err)
	}
	stop()
}

func writeTrace(t *testing.T, dir, name string, recs ...trace.Record) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, trace.Marshal(recs), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// syncBuffer is a log one goroutine writes while a test waits on it.
type syncBuffer struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	wrote chan struct{} // signalled after every Write
}

func newSyncBuffer() *syncBuffer { return &syncBuffer{wrote: make(chan struct{}, 1)} }

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	n, err := s.buf.Write(p)
	s.mu.Unlock()
	select {
	case s.wrote <- struct{}{}:
	default:
	}
	return n, err
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// waitFor blocks until the log matches re and returns the submatches.
func (s *syncBuffer) waitFor(t *testing.T, re *regexp.Regexp) []string {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		if m := re.FindStringSubmatch(s.String()); m != nil {
			return m
		}
		select {
		case <-s.wrote:
		case <-timeout:
			t.Fatalf("timed out waiting for %q in:\n%s", re, s.String())
		}
	}
}

// pawsWire serves a PAWS database over an empty EU registry and logs
// one "<method> spectra=<n>" line per JSON-RPC call it receives. A
// nonzero status answers every call with that HTTP status instead.
func pawsWire(t *testing.T, status int) (*httptest.Server, *syncBuffer) {
	wire := newSyncBuffer()
	srv := paws.NewServer(spectrum.NewRegistry(spectrum.EU))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req struct {
			Method string `json:"method"`
			Params struct {
				Spectra []json.RawMessage `json:"spectra"`
			} `json:"params"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("undecodable PAWS request %q: %v", body, err)
		}
		fmt.Fprintf(wire, "%s spectra=%d\n", req.Method, len(req.Params.Spectra))
		if status != 0 {
			w.WriteHeader(status)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, wire
}

// exitCode waits for a verb run in the background to return.
func exitCode(t *testing.T, done <-chan int, stderr *syncBuffer) int {
	t.Helper()
	select {
	case code := <-done:
		return code
	case <-time.After(30 * time.Second):
		t.Fatalf("verb did not return; stderr:\n%s", stderr.String())
		return 0
	}
}
