package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"cellfi/internal/core"
	"cellfi/internal/faults"
	"cellfi/internal/geo"
	"cellfi/internal/lte"
	"cellfi/internal/paws"
)

// runAP runs a CellFi access point's control plane against a PAWS
// database: it registers, acquires a TV channel, polls for
// availability, vacates within the regulatory deadline when the channel
// is withdrawn or the database goes dark, and reports spectrum use —
// the live version of the Figure 6 experiment, hardened for soak runs.
//
// With -duration 0 it runs until ctx is cancelled. Cancellation is a
// graceful shutdown: the AP vacates and sends a final (empty)
// spectrum-use notification before returning. Cancellation during the
// startup backoff returns at once: nothing was registered, so there is
// nothing to vacate.
//
// -chaos-profile (mild|heavy|outage) with -chaos-seed wires a
// deterministic fault injector into the database transport, for
// soak-testing the vacate invariant against a live daemon.
func runAP(ctx context.Context, args []string, _, stderr io.Writer) int {
	fs := newFlags("ap", stderr)
	db := fs.String("db", "http://localhost:8080/paws", "PAWS database endpoint")
	serial := fs.String("serial", "AP-0001", "device serial number")
	x := fs.Float64("x", 0, "AP x position (m east of the grid origin)")
	y := fs.Float64("y", 0, "AP y position (m north of the grid origin)")
	height := fs.Float64("height", 15, "antenna height (m)")
	poll := fs.Duration("poll", time.Second, "database polling interval")
	duration := fs.Duration("duration", 0, "how long to run (0 = forever)")
	startupRetries := fs.Int("startup-retries", 5,
		"bounded INIT/registration attempts before giving up")
	chaosSeed := fs.Int64("chaos-seed", 0, "seed for the chaos fault injector")
	profiles := strings.Join(faults.ProfileNames(), "|")
	chaosProfile := fs.String("chaos-profile", "off", "fault-injection profile: off|"+profiles)
	if code, ok := parse(fs, args, 0); !ok {
		return code
	}
	if *poll <= 0 {
		return fail(fs, exitUsage, "-poll must be positive, got %v", *poll)
	}
	logger := log.New(stderr, "", log.LstdFlags)

	pos := geo.Point{X: *x, Y: *y}
	client := paws.NewClient(*db, *serial)
	client.Retry = paws.DefaultRetry(*chaosSeed)
	client.CallTimeout = 5 * time.Second

	if *chaosProfile != "off" && *chaosProfile != "" {
		prof, ok := faults.ProfileByName(*chaosProfile)
		if !ok {
			return fail(fs, exitUsage, "unknown -chaos-profile %q (want off|%s)", *chaosProfile, profiles)
		}
		inj := faults.NewInjector(nil, faults.NewSeeded(prof, *chaosSeed))
		client.HTTPClient = &http.Client{Transport: inj, Timeout: 10 * time.Second}
		logger.Printf("chaos: injecting %q faults (seed %d) into the database transport",
			prof.Name, *chaosSeed)
	}

	ok, err := startup(ctx, logger, client, pos, *startupRetries)
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}
	if !ok {
		return 0
	}
	logger.Printf("registered %s with %s", *serial, *db)

	sel := core.NewChannelSelector(client, pos, *height)
	sel.OnTransition = func(tr core.Transition) {
		logger.Printf("lease: %s", tr)
	}

	var elapsed <-chan time.Time // nil, never ready, with -duration 0
	if *duration > 0 {
		elapsed = time.After(*duration)
	}
	ticker := time.NewTicker(*poll)
	defer ticker.Stop()

	// pendingNotify remembers a spectrum-use notification that failed
	// so the next poll tick retries it instead of dropping it forever.
	pendingNotify := false
	for {
		now := time.Now()
		act, err := sel.Refresh(now)
		if err != nil {
			logger.Printf("refresh error (%s): %v", paws.Classify(err), err)
		}
		switch act {
		case core.Acquired, core.Switched:
			l := sel.Current()
			logger.Printf("%s: channel %d, EARFCN %d, EIRP cap %.0f dBm, lease until %s",
				act, l.Channel, l.EARFCN, l.MaxEIRPdBm, l.Until.Format(time.RFC3339))
			if sib, err := lte.SIB1ForLease(1, l.CenterFreqHz, l.MaxEIRPdBm, lte.BW5MHz); err == nil {
				if raw, err := sib.Marshal(); err == nil {
					logger.Printf("broadcasting SIB1 % x (UL EARFCN %d, client cap %d dBm)",
						raw, sib.UplinkEARFCN, sib.MaxTxPowerDBm)
				}
			}
			pendingNotify = true
		case core.Vacated:
			logger.Printf("VACATED: radio off (ETSI budget %v, last contact %s)",
				core.VacateDeadline, sel.LastContact().Format(time.RFC3339))
			pendingNotify = false
		}
		if pendingNotify && sel.TransmitAllowed(time.Now()) {
			if err := notifyUse(client, pos, sel.Current()); err != nil {
				if paws.Classify(err) == paws.Transient {
					logger.Printf("spectrum-use notify failed, will retry next tick: %v", err)
				} else {
					logger.Printf("spectrum-use notify rejected, dropping: %v", err)
					pendingNotify = false
				}
			} else {
				pendingNotify = false
			}
		}
		select {
		case <-elapsed:
			shutdown(logger, client, pos, sel, "duration elapsed")
			return 0
		case <-ctx.Done():
			shutdown(logger, client, pos, sel, "signal")
			return 0
		case <-ticker.C:
		}
	}
}

// startup performs the INIT handshake and registration with bounded
// retries — a database that is briefly down at boot must not kill the
// AP, but a fatal or regulatory answer must. Cancellation during the
// retry backoff returns (false, nil): drain requested before the AP
// ever registered, so the caller just exits.
func startup(ctx context.Context, logger *log.Logger, client *paws.Client, pos geo.Point, retries int) (bool, error) {
	if retries < 1 {
		retries = 1
	}
	backoff := time.Second
	for attempt := 1; ; attempt++ {
		err := func() error {
			if _, err := client.Init(pos); err != nil {
				return fmt.Errorf("INIT: %w", err)
			}
			if _, err := client.Register(pos, "cellfi"); err != nil {
				return fmt.Errorf("registration: %w", err)
			}
			return nil
		}()
		if err == nil {
			return true, nil
		}
		if paws.Classify(err) != paws.Transient {
			return false, fmt.Errorf("startup failed (%s): %w", paws.Classify(err), err)
		}
		if attempt >= retries {
			return false, fmt.Errorf("startup failed after %d attempts: %w", attempt, err)
		}
		logger.Printf("startup attempt %d/%d failed: %v (retrying in %v)", attempt, retries, err, backoff)
		select {
		case <-ctx.Done():
			logger.Printf("signal during startup: exiting before registration")
			return false, nil
		case <-time.After(backoff):
		}
		if backoff < 30*time.Second {
			backoff *= 2
		}
	}
}

// notifyUse reports the current lease's spectrum use.
func notifyUse(client *paws.Client, pos geo.Point, l *core.Lease) error {
	return client.NotifyUse(pos, []paws.FrequencyRange{{
		Channel: l.Channel,
		StartHz: l.CenterFreqHz - 4e6, StopHz: l.CenterFreqHz + 4e6,
		MaxEIRPdBm: l.MaxEIRPdBm,
	}})
}

// shutdown vacates gracefully: radio off, a final empty spectrum-use
// notification (the cessation report), and a stats line for the log.
// The notify is bounded by the client's call timeout and retry policy;
// a second signal kills the process outright.
func shutdown(logger *log.Logger, client *paws.Client, pos geo.Point, sel *core.ChannelSelector, why string) {
	logger.Printf("shutting down (%s): vacating", why)
	if err := client.NotifyUse(pos, nil); err != nil {
		logger.Printf("final spectrum-use notification failed: %v", err)
	}
	st := sel.Stats()
	logger.Printf("lease stats: refreshes=%d failures=%d transitions=%d acquired=%d renewed=%d switched=%d grace=%d vacated=%d final-state=%s",
		st.Refreshes, st.Failures, st.Transitions, st.Acquired, st.Renewed,
		st.Switched, st.GraceEntries, st.Vacated, st.State)
}
