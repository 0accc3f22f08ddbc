package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cellfi/internal/faults"
	"cellfi/internal/geo"
	"cellfi/internal/paws"
	"cellfi/internal/spectrum"
)

// runDB serves a PAWS (RFC 7545-style) TV-white-space spectrum
// database over HTTP.
//
// -block registers permanent TV-station incumbents on the listed
// channels; -mic registers a wireless-microphone event on a channel for
// the given number of minutes starting now (it can repeat). The server
// counts the spectrum-use notifications it receives (/metrics, and the
// exit summary).
//
// -flaky serves scripted outage windows (offsets from process start,
// e.g. "30s-90s,5m-6m"): requests inside a window get -flaky-status, a
// 4xx or 5xx code, instead of an answer. Together with ap's -chaos-*
// flags this lets a live AP be soak-tested against database outages and
// proves the ETSI vacate budget holds end to end.
//
// Endpoints: /paws (JSON-RPC), /healthz (liveness plus incumbent and
// active-lease gauges), /metrics (the full pawsdb counter snapshot).
// Cancelling ctx drains in-flight requests for up to -shutdown-timeout.
func runDB(ctx context.Context, args []string, _, stderr io.Writer) int {
	fs := newFlags("db", stderr)
	addr := fs.String("addr", ":8080", "listen address")
	domain := fs.String("domain", "EU", "regulatory domain: EU or US")
	block := fs.String("block", "", "comma-separated channels with permanent TV incumbents")
	flaky := fs.String("flaky", "", "scripted outage windows as from-to offsets (e.g. 30s-90s,5m-6m)")
	flakyStatus := fs.Int("flaky-status", http.StatusServiceUnavailable, "HTTP status served during outage windows")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "drain budget for in-flight requests on SIGINT/SIGTERM")
	var mics micFlags
	fs.Var(&mics, "mic", "wireless-mic event as ch:minutes (repeatable)")
	if code, ok := parse(fs, args, 0); !ok {
		return code
	}

	var dom spectrum.Domain
	switch strings.ToUpper(*domain) {
	case "EU":
		dom = spectrum.EU
	case "US":
		dom = spectrum.US
	default:
		return fail(fs, exitUsage, "bad -domain %q, want EU or US", *domain)
	}
	blocked, err := parseBlock(*block, dom)
	if err != nil {
		return fail(fs, exitUsage, "%v", err)
	}
	windows, err := faults.ParseWindows(*flaky)
	if err != nil {
		return fail(fs, exitUsage, "bad -flaky: %v", err)
	}
	if *flakyStatus < 400 || *flakyStatus > 599 {
		return fail(fs, exitUsage, "bad -flaky-status %d, want a 4xx or 5xx code", *flakyStatus)
	}

	logger := log.New(stderr, "", log.LstdFlags)
	reg := spectrum.NewRegistry(dom)
	origin := geo.Point{}
	for _, ch := range blocked {
		if err := reg.AddIncumbent(spectrum.Incumbent{
			Kind: spectrum.TVStation, Channel: ch,
			Location: origin, ProtectRadius: 1e7, From: time.Now(),
		}); err != nil {
			return fail(fs, exitFailure, "%v", err)
		}
		logger.Printf("blocked channel %d (TV station)", ch)
	}
	for _, m := range mics {
		ch, mins, err := parseMic(m, dom)
		if err != nil {
			return fail(fs, exitUsage, "%v", err)
		}
		if err := reg.AddIncumbent(spectrum.Incumbent{
			Kind: spectrum.WirelessMic, Channel: ch,
			Location: origin, ProtectRadius: 1e7,
			From: time.Now(), To: time.Now().Add(time.Duration(mins) * time.Minute),
		}); err != nil {
			return fail(fs, exitFailure, "%v", err)
		}
		logger.Printf("wireless mic on channel %d for %d minutes", ch, mins)
	}

	srv := paws.NewServer(reg)
	db := srv.DB()
	var endpoint http.Handler = srv
	if len(windows) > 0 {
		endpoint = &faults.FlakyHandler{
			Inner:   srv,
			Windows: windows,
			Start:   time.Now(),
			Status:  *flakyStatus,
		}
		logger.Printf("flaky mode: %d outage window(s) %s (HTTP %d)", len(windows), *flaky, *flakyStatus)
	}
	mux := http.NewServeMux()
	mux.Handle("/paws", endpoint)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		occ := db.Leases().Occupancy(now)
		m := db.Snapshot(now)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":         "ok",
			"incumbents":     reg.IncumbentCount(),
			"active_leases":  occ.Total,
			"snapshot_epoch": db.SnapshotEpoch(),
			"registry_epoch": reg.Epoch(),
			"cache_hit_rate": m.CacheHitRate,
			"lease_shards":   occ,
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(db.Snapshot(time.Now()))
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}
	httpSrv := &http.Server{Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Printf("PAWS %s database listening on %s (endpoints /paws /healthz /metrics)", dom, ln.Addr())

	select {
	case err := <-errCh:
		return fail(fs, exitFailure, "%v", err)
	case <-ctx.Done():
	}
	logger.Printf("shutting down: draining in-flight requests (budget %v)", *shutdownTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("cellfi db: drain incomplete: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("cellfi db: %v", err)
	}
	m := db.Snapshot(time.Now())
	logger.Printf("served %d queries (%d notify) — cache hit rate %.1f%%, %d leases granted",
		m.Queries, m.NotifyOK+m.NotifyRejected, 100*m.CacheHitRate, m.LeasesGranted)
	return 0
}

type micFlags []string

func (m *micFlags) String() string     { return strings.Join(*m, ",") }
func (m *micFlags) Set(v string) error { *m = append(*m, v); return nil }

// parseMic parses a -mic value, "ch:minutes": a channel of dom's plan
// and a duration of at least one minute.
func parseMic(spec string, dom spectrum.Domain) (ch, minutes int, err error) {
	chStr, minStr, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad -mic %q, want ch:minutes", spec)
	}
	if ch, err = strconv.Atoi(chStr); err != nil {
		return 0, 0, fmt.Errorf("bad -mic %q: channel: %v", spec, err)
	}
	if minutes, err = strconv.Atoi(minStr); err != nil {
		return 0, 0, fmt.Errorf("bad -mic %q: minutes: %v", spec, err)
	}
	if minutes < 1 {
		return 0, 0, fmt.Errorf("bad -mic %q: minutes must be at least 1", spec)
	}
	if _, err := dom.CenterFreqHz(ch); err != nil {
		return 0, 0, fmt.Errorf("bad -mic %q: %v", spec, err)
	}
	return ch, minutes, nil
}

// parseBlock parses a -block value: comma-separated channels of dom's
// plan. The empty string blocks nothing.
func parseBlock(spec string, dom spectrum.Domain) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		ch, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -block entry %q: %v", f, err)
		}
		if _, err := dom.CenterFreqHz(ch); err != nil {
			return nil, fmt.Errorf("bad -block entry %q: %v", f, err)
		}
		out = append(out, ch)
	}
	return out, nil
}
