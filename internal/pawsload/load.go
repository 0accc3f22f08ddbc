// Package pawsload is the open-loop load harness for the PAWS spectrum
// database. It drives up to hundreds of thousands of simulated access
// points through a live paws.Server — optionally behind the
// internal/faults latency and outage surfaces — and reports sustained
// throughput, client-observed latency quantiles, and the database's own
// cache and lease-churn counters.
//
// Two drive modes share one request schedule:
//
//   - lean (default): each simulated AP pre-marshals its JSON-RPC
//     AVAIL_SPECTRUM_REQ body once; workers replay the bodies straight
//     into the handler through a reusable ResponseWriter sink. This
//     measures the database (decode → dispatch → index/cache → encode)
//     without paying for per-request allocation in the harness itself,
//     which is what lets one core push ≥ 50k queries/sec.
//
//   - wire: each AP is a full paws.Client calling through a
//     faults.Injector round-tripper, so retries, fault classification
//     and transport behavior are all in the measured path. Slower, used
//     for fidelity runs and fault-profile soaks.
//
// Pacing is open-loop: request k has a scheduled start time of
// start + k/TargetQPS, taken from a global atomic ticket counter, and
// workers sleep until their ticket's slot. Arrivals that fall behind
// schedule are counted (LateStarts) instead of silently converting the
// run to closed-loop back-pressure.
package pawsload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cellfi/internal/faults"
	"cellfi/internal/geo"
	"cellfi/internal/paws"
	"cellfi/internal/pawsdb"
	"cellfi/internal/spectrum"
	"cellfi/internal/stats"
)

// Config describes one load run. The zero value is filled with the
// defaults documented per field.
type Config struct {
	// Clients is the number of distinct simulated APs (serial numbers
	// and locations). Default 1000.
	Clients int
	// Requests is the total number of AVAIL_SPECTRUM_REQ calls to
	// issue, round-robined over the clients. Default 10 * Clients.
	Requests int
	// TargetQPS is the open-loop arrival rate; 0 issues requests as
	// fast as the workers can.
	TargetQPS float64
	// Workers is the number of concurrent driver goroutines. Default
	// 4 * GOMAXPROCS.
	Workers int
	// Seed drives registry synthesis, client placement and fault
	// schedules. Default 1.
	Seed int64
	// Incumbents is how many primary users the synthetic metro
	// registry carries. Default 160.
	Incumbents int
	// RegionM is the half-width in metres of the square metro region
	// clients and incumbents are placed in. Default 30000.
	RegionM float64
	// DisableCache turns the database's response cache off, measuring
	// the pure index path.
	DisableCache bool
	// Wire switches to wire mode (full paws.Client per AP).
	Wire bool
	// FaultProfile names a faults profile for the wire-mode injector
	// ("" injects nothing). Ignored in lean mode.
	FaultProfile string
	// Outages are scripted server-side outage windows (offsets from
	// the run start) applied through faults.FlakyHandler, which serves
	// 503 inside them.
	Outages []faults.Window
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 1000
	}
	if c.Requests <= 0 {
		c.Requests = 10 * c.Clients
	}
	if c.Workers <= 0 {
		c.Workers = 4 * runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Incumbents <= 0 {
		c.Incumbents = 160
	}
	if c.RegionM <= 0 {
		c.RegionM = 30000
	}
	return c
}

// Result is what one load run measured.
type Result struct {
	Clients  int     `json:"clients"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	Duration float64 `json:"duration_sec"`
	// QPS is completed requests divided by wall time — the sustained
	// rate, not the configured target.
	QPS float64 `json:"qps"`
	// LateStarts counts paced requests that missed their scheduled
	// slot by more than one millisecond (the harness fell behind the
	// target rate).
	LateStarts int64 `json:"late_starts"`

	LatencyP50Ns  int64   `json:"latency_p50_ns"`
	LatencyP99Ns  int64   `json:"latency_p99_ns"`
	LatencyMeanNs float64 `json:"latency_mean_ns"`

	// DB is the database's own view of the run: cache hit rate, lease
	// churn, rebuilds, dispatch latency.
	DB pawsdb.MetricsSnapshot `json:"db"`
}

// BuildRegistry synthesizes a seeded metro-scale incumbent registry
// with the occupancy structure a real white-space metro shows: TV
// protection contours are tens of kilometres across, so from any one
// city they either blanket the whole region or miss it entirely; only
// venue-scale wireless mics and the rare contour edge that happens to
// fall across town create street-level availability boundaries. All
// schedules are open-ended so a run's answers are stable end to end.
func BuildRegistry(seed int64, incumbents int, regionM float64) *spectrum.Registry {
	rng := rand.New(rand.NewSource(seed))
	reg := spectrum.NewRegistry(spectrum.EU)
	first, last := reg.Domain.ChannelRange()
	for i := 0; i < incumbents; i++ {
		inc := spectrum.Incumbent{
			Channel: first + rng.Intn(last-first+1),
			Location: geo.Point{
				X: (rng.Float64()*2 - 1) * regionM,
				Y: (rng.Float64()*2 - 1) * regionM,
			},
		}
		switch rng.Intn(20) {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9: // TV contour blanketing the metro
			inc.Kind = spectrum.TVStation
			inc.ProtectRadius = regionM * (4 + rng.Float64()*4)
		case 10, 11, 12: // TV contour whose edge misses the metro
			inc.Kind = spectrum.TVStation
			d := regionM * 5
			th := rng.Float64() * 2 * math.Pi
			inc.Location = geo.Point{X: d * math.Cos(th), Y: d * math.Sin(th)}
			inc.ProtectRadius = regionM * (1 + rng.Float64())
		case 14, 15: // contour edge crossing town: real spatial boundary
			inc.Kind = spectrum.TVStation
			inc.ProtectRadius = 3000 + rng.Float64()*7000
		default: // wireless-mic venue
			inc.Kind = spectrum.WirelessMic
			inc.ProtectRadius = 100 + rng.Float64()*800
		}
		if err := reg.AddIncumbent(inc); err != nil {
			panic(err) // channel drawn from the domain's own range
		}
	}
	return reg
}

// placements draws one fixed location per client over the region.
func placements(cfg Config) []geo.Point {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x51ab))
	pts := make([]geo.Point, cfg.Clients)
	for i := range pts {
		pts[i] = geo.Point{
			X: (rng.Float64()*2 - 1) * cfg.RegionM,
			Y: (rng.Float64()*2 - 1) * cfg.RegionM,
		}
	}
	return pts
}

// sink is a minimal ResponseWriter the lean mode reuses per worker, so
// measuring the server does not also measure httptest allocation.
type sink struct {
	hdr    http.Header
	status int
	buf    []byte
}

func newSink() *sink { return &sink{hdr: make(http.Header, 4)} }

func (s *sink) Header() http.Header         { return s.hdr }
func (s *sink) WriteHeader(code int)        { s.status = code }
func (s *sink) Write(p []byte) (int, error) { s.buf = append(s.buf, p...); return len(p), nil }
func (s *sink) reset() {
	s.status = http.StatusOK
	s.buf = s.buf[:0]
	for k := range s.hdr {
		delete(s.hdr, k)
	}
}

// failed reports whether the captured response is anything other than
// a successful JSON-RPC result (HTTP error, or an "error" member in
// the envelope — success envelopes omit it).
func (s *sink) failed() bool {
	return s.status != http.StatusOK || bytes.Contains(s.buf, []byte(`"error"`))
}

// Run executes one load run against a fresh database built from the
// config's seed and returns its measurements.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	reg := BuildRegistry(cfg.Seed, cfg.Incumbents, cfg.RegionM)
	db := pawsdb.New(reg, pawsdb.Options{DisableCache: cfg.DisableCache})
	srv := paws.NewServerWith(db)
	return RunAgainst(cfg, srv)
}

// RunAgainst executes a load run against a caller-supplied server
// (whose database supplies the Result's DB snapshot). The registry
// behind srv is not modified.
func RunAgainst(cfg Config, srv *paws.Server) (Result, error) {
	cfg = cfg.withDefaults()
	var handler http.Handler = srv
	start := time.Now()
	if len(cfg.Outages) > 0 {
		handler = &faults.FlakyHandler{
			Inner:   srv,
			Windows: cfg.Outages,
			Start:   start,
		}
	}

	pts := placements(cfg)
	var (
		hist    stats.Histogram
		ticket  atomic.Int64
		errs    atomic.Int64
		late    atomic.Int64
		wg      sync.WaitGroup
		perTick time.Duration
	)
	if cfg.TargetQPS > 0 {
		perTick = time.Duration(float64(time.Second) / cfg.TargetQPS)
	}

	// pace blocks until ticket k's scheduled slot (open-loop), and
	// counts arrivals that missed it by more than a millisecond.
	pace := func(k int64) {
		if perTick == 0 {
			return
		}
		sched := start.Add(time.Duration(k) * perTick)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		} else if -d > time.Millisecond {
			late.Add(1)
		}
	}

	worker := func(drive func(client int) bool) {
		defer wg.Done()
		for {
			k := ticket.Add(1) - 1
			if k >= int64(cfg.Requests) {
				return
			}
			pace(k)
			t := time.Now()
			ok := drive(int(k) % cfg.Clients)
			hist.Observe(time.Since(t))
			if !ok {
				errs.Add(1)
			}
		}
	}

	if cfg.Wire {
		transport := http.RoundTripper(faults.HandlerTransport{Handler: handler})
		if cfg.FaultProfile != "" {
			prof, ok := faults.ProfileByName(cfg.FaultProfile)
			if !ok {
				return Result{}, fmt.Errorf("pawsload: unknown fault profile %q (have %v)",
					cfg.FaultProfile, faults.ProfileNames())
			}
			transport = faults.NewInjector(transport, faults.NewSeeded(prof, cfg.Seed))
		}
		hc := &http.Client{Transport: transport}
		clients := make([]*paws.Client, cfg.Clients)
		for i := range clients {
			clients[i] = paws.NewClient("http://pawsdb.load/paws", fmt.Sprintf("AP-%06d", i))
			clients[i].HTTPClient = hc
		}
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go worker(func(ci int) bool {
				_, err := clients[ci].GetSpectrum(pts[ci], 15)
				return err == nil
			})
		}
	} else {
		bodies := prebuildBodies(cfg, pts)
		target, err := url.Parse("http://pawsdb.load/paws")
		if err != nil {
			return Result{}, err
		}
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			rd := bytes.NewReader(nil)
			req := &http.Request{
				Method: http.MethodPost,
				URL:    target,
				Host:   target.Host,
				Header: http.Header{"Content-Type": {"application/json"}},
				Body:   io.NopCloser(rd),
			}
			snk := newSink()
			go worker(func(ci int) bool {
				rd.Reset(bodies[ci])
				snk.reset()
				handler.ServeHTTP(snk, req)
				return !snk.failed()
			})
		}
	}
	wg.Wait()

	wall := time.Since(start)
	lat := hist.Snapshot()
	res := Result{
		Clients:       cfg.Clients,
		Requests:      int64(cfg.Requests),
		Errors:        errs.Load(),
		Duration:      wall.Seconds(),
		LateStarts:    late.Load(),
		LatencyP50Ns:  lat.Quantile(0.50),
		LatencyP99Ns:  lat.Quantile(0.99),
		LatencyMeanNs: lat.Mean(),
		DB:            srv.DB().Snapshot(time.Now()),
	}
	if wall > 0 {
		res.QPS = float64(cfg.Requests) / wall.Seconds()
	}
	return res, nil
}

// prebuildBodies marshals each client's JSON-RPC request envelope once,
// up front, so the lean hot loop replays bytes instead of re-encoding.
func prebuildBodies(cfg Config, pts []geo.Point) [][]byte {
	bodies := make([][]byte, cfg.Clients)
	for i := range bodies {
		params, err := json.Marshal(paws.AvailSpectrumReq{
			DeviceDesc: paws.DeviceDescriptor{
				SerialNumber:   fmt.Sprintf("AP-%06d", i),
				ManufacturerID: "cellfi",
				ModelID:        "ap-e40",
				DeviceType:     "FIXED",
				RulesetIDs:     []string{"ETSI-EN-301-598-2014"},
			},
			Location:       paws.ToGeo(pts[i]),
			AntennaHeightM: 15,
		})
		if err != nil {
			panic(err)
		}
		body, err := json.Marshal(paws.RPCRequest(paws.MethodGetSpectrum, params, int64(i+1)))
		if err != nil {
			panic(err)
		}
		bodies[i] = body
	}
	return bodies
}
