// Command pawsdb runs a PAWS (RFC 7545-style) TV-white-space spectrum
// database server over HTTP.
//
// Usage:
//
//	pawsdb [-addr :8080] [-domain EU|US] [-block ch[,ch...]] [-mic ch:minutes]
//	       [-flaky from-to[,from-to...]] [-flaky-status 503]
//	       [-shutdown-timeout 10s]
//
// -block registers permanent TV-station incumbents on the listed
// channels; -mic registers a wireless-microphone event on a channel
// for the given number of minutes starting now (it can repeat). An
// unknown -domain, or a -mic that is not a channel of the domain's
// plan and a duration of at least one minute, is refused with exit
// status 1. The server counts the spectrum-use notifications it
// receives (/metrics, and the exit summary).
//
// -flaky serves scripted outage windows (offsets from process start,
// e.g. "30s-90s,5m-6m"): requests inside a window get -flaky-status
// instead of an answer. Together with cellfi-ap's -chaos-* flags this
// lets a live AP be soak-tested against database outages and proves
// the ETSI vacate budget holds end to end.
//
// Endpoints: /paws (JSON-RPC), /healthz (liveness plus incumbent and
// active-lease gauges), /metrics (the full pawsdb counter snapshot).
// SIGINT/SIGTERM drain in-flight requests for up to -shutdown-timeout
// before the process exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cellfi/internal/faults"
	"cellfi/internal/geo"
	"cellfi/internal/paws"
	"cellfi/internal/spectrum"
)

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

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	domain := flag.String("domain", "EU", "regulatory domain: EU or US")
	block := flag.String("block", "", "comma-separated channels with permanent TV incumbents")
	flaky := flag.String("flaky", "", "scripted outage windows as from-to offsets (e.g. 30s-90s,5m-6m)")
	flakyStatus := flag.Int("flaky-status", http.StatusServiceUnavailable, "HTTP status served during outage windows")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "drain budget for in-flight requests on SIGINT/SIGTERM")
	var mics micFlags
	flag.Var(&mics, "mic", "wireless-mic event as ch:minutes (repeatable)")
	flag.Parse()

	var dom spectrum.Domain
	switch strings.ToUpper(*domain) {
	case "EU":
		dom = spectrum.EU
	case "US":
		dom = spectrum.US
	default:
		log.Fatalf("pawsdb: bad -domain %q, want EU or US", *domain)
	}
	reg := spectrum.NewRegistry(dom)
	origin := geo.Point{}

	if *block != "" {
		for _, f := range strings.Split(*block, ",") {
			ch, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				log.Fatalf("pawsdb: bad -block entry %q: %v", f, err)
			}
			if err := reg.AddIncumbent(spectrum.Incumbent{
				Kind: spectrum.TVStation, Channel: ch,
				Location: origin, ProtectRadius: 1e7, From: time.Now(),
			}); err != nil {
				log.Fatalf("pawsdb: %v", err)
			}
			log.Printf("blocked channel %d (TV station)", ch)
		}
	}
	for _, m := range mics {
		ch, mins, err := parseMic(m, dom)
		if err != nil {
			log.Fatalf("pawsdb: %v", err)
		}
		if err := reg.AddIncumbent(spectrum.Incumbent{
			Kind: spectrum.WirelessMic, Channel: ch,
			Location: origin, ProtectRadius: 1e7,
			From: time.Now(), To: time.Now().Add(time.Duration(mins) * time.Minute),
		}); err != nil {
			log.Fatalf("pawsdb: %v", err)
		}
		log.Printf("wireless mic on channel %d for %d minutes", ch, mins)
	}

	srv := paws.NewServer(reg)
	db := srv.DB()
	var endpoint http.Handler = srv
	if *flaky != "" {
		windows, err := faults.ParseWindows(*flaky)
		if err != nil {
			log.Fatalf("pawsdb: %v", err)
		}
		endpoint = &faults.FlakyHandler{
			Inner:   srv,
			Windows: windows,
			Start:   time.Now(),
			Status:  *flakyStatus,
		}
		log.Printf("flaky mode: %d outage window(s) %s (HTTP %d)", len(windows), *flaky, *flakyStatus)
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

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("PAWS %s database listening on %s (endpoints /paws /healthz /metrics)", dom, *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatalf("pawsdb: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the drain immediately

	log.Printf("shutting down: draining in-flight requests (budget %v)", *shutdownTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("pawsdb: drain incomplete: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("pawsdb: %v", err)
	}
	m := db.Snapshot(time.Now())
	log.Printf("served %d queries (%d notify) — cache hit rate %.1f%%, %d leases granted",
		m.Queries, m.NotifyOK+m.NotifyRejected, 100*m.CacheHitRate, m.LeasesGranted)
}
