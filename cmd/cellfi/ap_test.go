package main

import (
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"cellfi/internal/paws"
)

// TestAPCessationOnCancel cancels a granted AP and checks, on the wire,
// that its last word to the database is the empty spectrum-use
// notification that reports the radio off.
func TestAPCessationOnCancel(t *testing.T) {
	ts, wire := pawsWire(t, 0)
	stderr := newSyncBuffer()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan int, 1)
	go func() { done <- run(ctx, []string{"ap", "-db", ts.URL, "-poll", "20ms"}, io.Discard, stderr) }()

	wire.waitFor(t, regexp.MustCompile(regexp.QuoteMeta(paws.MethodNotifyUse+" spectra=1")))
	cancel()
	if code := exitCode(t, done, stderr); code != 0 {
		t.Fatalf("ap = %d after cancel, want 0; stderr:\n%s", code, stderr.String())
	}
	calls := strings.Split(strings.TrimSpace(wire.String()), "\n")
	if last := calls[len(calls)-1]; last != paws.MethodNotifyUse+" spectra=0" {
		t.Errorf("last call on the wire = %q, want the cessation notify; calls:\n%s", last, wire.String())
	}
}

// TestAPCancelDuringStartupBackoff cancels an AP waiting out its
// startup backoff against a database that answers 503. Without the
// cancellation the second and last attempt would fail and exit 1.
func TestAPCancelDuringStartupBackoff(t *testing.T) {
	ts, wire := pawsWire(t, http.StatusServiceUnavailable)
	stderr := newSyncBuffer()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"ap", "-db", ts.URL, "-startup-retries", "2"}, io.Discard, stderr)
	}()

	stderr.waitFor(t, regexp.MustCompile(`startup attempt 1/2 failed`))
	cancel()
	if code := exitCode(t, done, stderr); code != 0 {
		t.Fatalf("ap = %d after cancel, want 0; stderr:\n%s", code, stderr.String())
	}
	if strings.Contains(wire.String(), paws.MethodRegister) {
		t.Errorf("AP registered after cancellation; calls:\n%s", wire.String())
	}
}
