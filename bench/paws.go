package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/paws"
	"cellfi/internal/pawsdb"
	"cellfi/internal/pawsload"
	"cellfi/internal/spectrum"
)

const (
	// The incumbent world is a fixed part of the input, like the city's
	// size: pawsload.BuildRegistry blankets the region with a seed-drawn
	// handful of TV contours, so the mean number of free channels (and
	// with it every response's size) swings 1-7 between seeds. The seed
	// varies the fleet, the request order and the churn schedule. World 2
	// leaves 2-4 channels free, with contour edges crossing the region.
	pawsWorldSeed   = 2
	pawsIncumbents  = 160
	pawsRegionM     = 30000
	pawsVerifyEvery = 256 // 1 response in 256 is compared with the brute reference
	pawsAntennaM    = 15

	wireClients     = 10_000
	wireBlockReqs   = 10_000
	wireWarmReqs    = 20_000
	leanClients     = 100_000
	leanBlockReqs   = 100_000
	leanWarmReqs    = 100_000
	churnNotifyEach = 10 // 1 request in 10 is a NOTIFY_SPECTRUM_USE write
	churnPeriod     = 100 * time.Millisecond
)

// fleet is the generated input of a paws workload: one fixed location
// and serial per simulated AP, plus a private, never-mutated copy of
// the incumbent registry used as the brute-force reference.
type fleet struct {
	pts []geo.Point
	ref *spectrum.Registry
	at  time.Time // query time of reference lookups; schedules are open-ended
}

func pawsRegistry() *spectrum.Registry {
	return pawsload.BuildRegistry(pawsWorldSeed, pawsIncumbents, pawsRegionM)
}

func newFleet(seed int64, clients int) *fleet {
	rng := rand.New(rand.NewSource(seed ^ 0x51ab))
	f := &fleet{
		pts: make([]geo.Point, clients),
		ref: pawsRegistry(),
		at:  time.Now(),
	}
	for i := range f.pts {
		f.pts[i] = geo.Point{
			X: (rng.Float64()*2 - 1) * pawsRegionM,
			Y: (rng.Float64()*2 - 1) * pawsRegionM,
		}
	}
	return f
}

func serial(i int) string { return fmt.Sprintf("AP-%06d", i) }

// refChannels is the reference answer for a location: the channels the
// brute registry scan allows at the point the server will decode.
func (f *fleet) refChannels(p geo.Point, skip int) []int {
	var out []int
	for _, ci := range f.ref.AvailableAt(paws.FromGeo(paws.ToGeo(p)), f.at) {
		if ci.Channel != skip {
			out = append(out, ci.Channel)
		}
	}
	return out
}

func sameChannels(got []spectrum.ChannelInfo, want []int, skip int) bool {
	i := 0
	for _, ci := range got {
		if ci.Channel == skip {
			continue
		}
		if i >= len(want) || want[i] != ci.Channel {
			return false
		}
		i++
	}
	return i == len(want)
}

// pawsCounts are the correctness counters the load workers share.
type pawsCounts struct {
	attempted, failed atomic.Int64
	compared          atomic.Int64
	retries           atomic.Int64
	noteMu            sync.Mutex
	notes             []string
}

func (c *pawsCounts) fail(format string, a ...any) {
	c.failed.Add(1)
	c.noteMu.Lock()
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, a...))
	}
	c.noteMu.Unlock()
}

func (c *pawsCounts) verdict() verdict {
	return verdict{attempted: c.attempted.Load(), failed: c.failed.Load(), notes: c.notes}
}

// closedLoop issues n requests from `workers` goroutines, each sending
// its next request only when the previous one completed, and appends
// every request's latency to lat. drive(worker, k) performs request k.
// Closed loop is deliberate: on a small box generator and server share
// cores, and open-loop pacing measures timer wake-ups, not the server.
func closedLoop(workers, n int, lat []int64, drive func(worker int, k int64)) []int64 {
	var ticket atomic.Int64
	per := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]int64, 0, n/workers+n/8+16)
			for {
				k := ticket.Add(1) - 1
				if k >= int64(n) {
					break
				}
				t0 := time.Now()
				drive(w, k)
				mine = append(mine, time.Since(t0).Nanoseconds())
			}
			per[w] = mine
		}(w)
	}
	wg.Wait()
	for _, mine := range per {
		lat = append(lat, mine...)
	}
	return lat
}

// loopBlock runs one closed-loop block of n requests under a
// bench.block span; drive gets its worker's span buffer and the block's
// span ID to parent its own spans on.
func loopBlock(e *env, workers, n int, run int32, lat []int64, drive func(w int, sb *spanBuf, blk int32, k int64)) []int64 {
	root := e.tr.buf()
	blk := root.open()
	b0 := time.Now()
	bufs := make([]*spanBuf, workers)
	for i := range bufs {
		bufs[i] = e.tr.buf()
	}
	lat = closedLoop(workers, n, lat, func(w int, k int64) { drive(w, bufs[w], blk, k) })
	root.close(blk, "bench.block", 0, run, b0, time.Now())
	return lat
}

// ---- paws_wire ----------------------------------------------------

// wireInst is the paws_wire workload: an AP fleet of paws.Clients
// calling GetSpectrum over loopback TCP + net/http into a paws.Server
// on pawsdb. One op is one GetSpectrum; one block is wireBlockReqs.
type wireInst struct {
	e       *env
	f       *fleet
	srv     *paws.Server
	hs      *http.Server
	served  chan error
	tr      *http.Transport
	clients []*paws.Client
	next    int64 // request counter carried across blocks
	cnt     pawsCounts
	block0  int
}

func preparePawsWire(e *env) (builder, error) {
	f := newFleet(e.seed, e.scaled(wireClients, 64))
	return func() (instance, error) { return setupPawsWire(e, f) }, nil
}

func setupPawsWire(e *env, f *fleet) (instance, error) {
	n := len(f.pts)
	in := &wireInst{e: e, f: f, block0: e.scaled(wireBlockReqs, 256)}
	in.srv = paws.NewServerWith(pawsdb.New(pawsRegistry(), pawsdb.Options{}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.hs = &http.Server{Handler: in.srv}
	in.served = make(chan error, 1)
	go func() { in.served <- in.hs.Serve(ln) }()
	// One keep-alive connection per worker: the fleet shares them the
	// way many APs share a database's front end.
	in.tr = &http.Transport{
		MaxConnsPerHost:     e.procs,
		MaxIdleConnsPerHost: e.procs,
		MaxIdleConns:        e.procs,
	}
	hc := &http.Client{Transport: in.tr, Timeout: 10 * time.Second}
	endpoint := "http://" + ln.Addr().String() + "/paws"
	in.clients = make([]*paws.Client, n)
	for i := range in.clients {
		in.clients[i] = paws.NewClient(endpoint, serial(i))
		in.clients[i].HTTPClient = hc
	}
	return in, nil
}

func (in *wireInst) drive(sb *spanBuf, parent, run int32, k int64) {
	ci := int(k % int64(len(in.clients)))
	t0 := time.Now()
	resp, err := in.clients[ci].GetSpectrum(in.f.pts[ci], pawsAntennaM)
	if sb != nil {
		sb.add("paws.Client.GetSpectrum", parent, run, t0, time.Now())
	}
	in.cnt.attempted.Add(1)
	if err != nil {
		var pe *paws.Error
		if errors.As(err, &pe) {
			in.cnt.retries.Add(int64(pe.Attempts - 1))
		}
		in.cnt.fail("client %d: %v", ci, err)
		return
	}
	if k%pawsVerifyEvery == 0 {
		in.cnt.compared.Add(1)
		if want := in.f.refChannels(in.f.pts[ci], -1); !sameChannels(resp.Channels(), want, -1) {
			in.cnt.fail("client %d: channels differ from the registry scan", ci)
		}
	}
}

func (in *wireInst) run(run int32, n int, lat []int64) []int64 {
	base := in.next
	in.next += int64(n)
	return loopBlock(in.e, in.e.procs, n, run, lat, func(_ int, sb *spanBuf, blk int32, k int64) {
		in.drive(sb, blk, run, base+k)
	})
}

func (in *wireInst) warm() { in.run(0, in.e.scaled(wireWarmReqs, 256), nil) }

func (in *wireInst) block(run int32, lat []int64) []int64 { return in.run(run, in.block0, lat) }

func (in *wireInst) verify() verdict { return in.cnt.verdict() }

func (in *wireInst) close() {
	in.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = in.hs.Shutdown(ctx) // on timeout the listener is closed all the same
	<-in.served
}

// ---- paws_lean_* --------------------------------------------------

// sink is a reusable ResponseWriter, so measuring the server does not
// also measure response-recorder allocation.
type sink struct {
	hdr    http.Header
	status int
	buf    []byte
}

func newSink() *sink { return &sink{hdr: make(http.Header, 4), status: http.StatusOK} }

func (s *sink) Header() http.Header         { return s.hdr }
func (s *sink) WriteHeader(code int)        { s.status = code }
func (s *sink) Write(p []byte) (int, error) { s.buf = append(s.buf, p...); return len(p), nil }
func (s *sink) reset() {
	s.status = http.StatusOK
	s.buf = s.buf[:0]
	clear(s.hdr)
}

// ok reports whether the captured response is a successful JSON-RPC
// result; success envelopes carry no "error" member.
func (s *sink) ok() bool {
	return s.status == http.StatusOK && !bytes.Contains(s.buf, []byte(`"error"`))
}

// leanWorker is one load goroutine's reusable request and sink.
type leanWorker struct {
	rd  *bytes.Reader
	req *http.Request
	snk *sink
}

func newLeanWorker() *leanWorker {
	target := &url.URL{Scheme: "http", Host: "pawsdb.bench", Path: "/paws"}
	rd := bytes.NewReader(nil)
	return &leanWorker{rd: rd, snk: newSink(), req: &http.Request{
		Method: http.MethodPost,
		URL:    target,
		Host:   target.Host,
		Header: http.Header{"Content-Type": {"application/json"}},
		Body:   io.NopCloser(rd),
	}}
}

// serve replays body into the server and leaves the response in w.snk.
func (w *leanWorker) serve(srv *paws.Server, body []byte) {
	w.rd.Reset(body)
	w.snk.reset()
	srv.ServeHTTP(w.snk, w.req)
}

// rpcResult is the success envelope of a getSpectrum response.
type rpcResult struct {
	Result paws.AvailSpectrumResp `json:"result"`
}

// mutation is one entry of the churn schedule: a wireless-mic pop-up
// (Add) or its removal, at a point where the churn channel is
// otherwise free.
type mutation struct {
	Add     bool
	Center  geo.Point
	RadiusM float64
}

// churnPlan is the seed-derived part of paws_lean_churn: the channel
// the mics occupy and the cyclic add/remove schedule.
type churnPlan struct {
	Channel  int
	Schedule []mutation
}

// newChurnPlan picks the channel free at the most probe points and
// places each mic where that channel is free without it, so "gone
// after add, back after remove" is checkable. ok is false when the
// registry leaves no channel free anywhere.
func newChurnPlan(f *fleet, seed int64, mics int) (churnPlan, bool) {
	rng := rand.New(rand.NewSource(seed ^ 0xc4a2))
	free := map[int]int{}
	probes := make([]geo.Point, 256)
	for i := range probes {
		probes[i] = geo.Point{X: (rng.Float64()*2 - 1) * pawsRegionM, Y: (rng.Float64()*2 - 1) * pawsRegionM}
		for _, ch := range f.refChannels(probes[i], -1) {
			free[ch]++
		}
	}
	plan := churnPlan{Channel: -1}
	best := 0
	for ch, n := range free {
		if n > best || (n == best && ch < plan.Channel) {
			plan.Channel, best = ch, n
		}
	}
	if plan.Channel < 0 {
		return plan, false
	}
	for len(plan.Schedule) < 2*mics {
		p := geo.Point{X: (rng.Float64()*2 - 1) * pawsRegionM, Y: (rng.Float64()*2 - 1) * pawsRegionM}
		r := 300 + rng.Float64()*600
		if !f.ref.ChannelAvailable(plan.Channel, paws.FromGeo(paws.ToGeo(p)), f.at) {
			continue
		}
		plan.Schedule = append(plan.Schedule, mutation{true, p, r}, mutation{false, p, r})
	}
	return plan, true
}

// leanInst is the paws_lean_steady / paws_lean_churn workload:
// premarshaled request bodies replayed straight into Server.ServeHTTP
// (no HTTP, no TCP), so the database layer is measured at full size.
// One op is one request; one block is leanBlockReqs.
type leanInst struct {
	e *env
	*leanInputs
	srv     *paws.Server
	workers []*leanWorker
	next    int64
	cnt     pawsCounts
	block0  int

	base     []spectrum.Incumbent // the registry's own incumbents on plan.Channel
	stop     chan struct{}
	stopped  chan struct{}
	muts     int
	rebuilds []float64 // ms, first query after each mutation
}

func getSpectrumBody(i int, p geo.Point) []byte {
	params, err := json.Marshal(paws.AvailSpectrumReq{
		DeviceDesc: paws.DeviceDescriptor{
			SerialNumber:   serial(i),
			ManufacturerID: "cellfi",
			ModelID:        "ap-e40",
			DeviceType:     "FIXED",
			RulesetIDs:     []string{"ETSI-EN-301-598-2014"},
		},
		Location:       paws.ToGeo(p),
		AntennaHeightM: pawsAntennaM,
	})
	if err != nil {
		panic(err) // plain structs of strings and floats
	}
	body, err := json.Marshal(paws.RPCRequest(paws.MethodGetSpectrum, params, int64(i+1)))
	if err != nil {
		panic(err)
	}
	return body
}

func notifyBody(i int, p geo.Point, ci spectrum.ChannelInfo) []byte {
	params, err := json.Marshal(paws.NotifyUseReq{
		DeviceDesc: paws.DeviceDescriptor{SerialNumber: serial(i), DeviceType: "FIXED"},
		Location:   paws.ToGeo(p),
		Spectra: []paws.FrequencyRange{{
			StartHz:    ci.CenterFreqHz - ci.WidthHz/2,
			StopHz:     ci.CenterFreqHz + ci.WidthHz/2,
			MaxEIRPdBm: ci.MaxEIRPdBm,
			Channel:    ci.Channel,
		}},
	})
	if err != nil {
		panic(err)
	}
	body, err := json.Marshal(paws.RPCRequest(paws.MethodNotifyUse, params, int64(i+1)))
	if err != nil {
		panic(err)
	}
	return body
}

// leanInputs is what the load generator prepares once per run: the
// request bodies it will replay and, for churn, the mutation plan.
type leanInputs struct {
	f      *fleet
	bodies [][]byte // AVAIL_SPECTRUM_REQ per client
	churn  bool
	notify [][]byte // NOTIFY_SPECTRUM_USE per client (churn; nil = none free)
	plan   churnPlan
}

func newLeanInputs(seed int64, clients int, churn bool) (*leanInputs, error) {
	li := &leanInputs{f: newFleet(seed, clients), churn: churn, bodies: make([][]byte, clients)}
	for i, p := range li.f.pts {
		li.bodies[i] = getSpectrumBody(i, p)
	}
	if !churn {
		return li, nil
	}
	var ok bool
	if li.plan, ok = newChurnPlan(li.f, seed, 512); !ok {
		return nil, fmt.Errorf("seed %d: registry leaves no channel free for the churn mics", seed)
	}
	// A device only ever reports a channel the mics never touch.
	li.notify = make([][]byte, clients)
	for i, p := range li.f.pts {
		for _, ci := range li.f.ref.AvailableAt(paws.FromGeo(paws.ToGeo(p)), li.f.at) {
			if ci.Channel != li.plan.Channel {
				li.notify[i] = notifyBody(i, p, ci)
				break
			}
		}
	}
	return li, nil
}

func preparePawsLean(e *env, churn bool) (builder, error) {
	li, err := newLeanInputs(e.seed, e.scaled(leanClients, 64), churn)
	if err != nil {
		return nil, err
	}
	return func() (instance, error) { return setupPawsLean(e, li), nil }, nil
}

func setupPawsLean(e *env, li *leanInputs) *leanInst {
	in := &leanInst{e: e, leanInputs: li, block0: e.scaled(leanBlockReqs, 1024)}
	reg := pawsRegistry()
	in.srv = paws.NewServerWith(pawsdb.New(reg, pawsdb.Options{}))
	for w := 0; w < e.procs; w++ {
		in.workers = append(in.workers, newLeanWorker())
	}
	if li.churn {
		for _, inc := range reg.Incumbents() {
			if inc.Channel == li.plan.Channel {
				in.base = append(in.base, inc)
			}
		}
	}
	return in
}

func (in *leanInst) drive(w *leanWorker, sb *spanBuf, parent, run int32, k int64) {
	ci := int(k % int64(len(in.bodies)))
	body, isNotify := in.bodies[ci], false
	if in.churn && k%churnNotifyEach == churnNotifyEach-1 && in.notify[ci] != nil {
		body, isNotify = in.notify[ci], true
	}
	t0 := time.Now()
	w.serve(in.srv, body)
	if sb != nil {
		sb.add("paws.Server.ServeHTTP", parent, run, t0, time.Now())
	}
	in.cnt.attempted.Add(1)
	if !w.snk.ok() {
		in.cnt.fail("client %d (notify=%v): HTTP %d %.120s", ci, isNotify, w.snk.status, w.snk.buf)
		return
	}
	if isNotify || k%pawsVerifyEvery != 0 {
		return
	}
	in.cnt.compared.Add(1)
	var env rpcResult
	if err := json.Unmarshal(w.snk.buf, &env); err != nil {
		in.cnt.fail("client %d: response does not parse: %v", ci, err)
		return
	}
	skip := -1
	if in.churn {
		skip = in.plan.Channel // legitimately in flux while the mutator runs
	}
	if !sameChannels(env.Result.Channels(), in.f.refChannels(in.f.pts[ci], skip), skip) {
		in.cnt.fail("client %d: channels differ from the registry scan", ci)
	}
}

func (in *leanInst) run(run int32, n int, lat []int64) []int64 {
	base := in.next
	in.next += int64(n)
	return loopBlock(in.e, len(in.workers), n, run, lat, func(w int, sb *spanBuf, blk int32, k int64) {
		in.drive(in.workers[w], sb, blk, run, base+k)
	})
}

func (in *leanInst) warm() {
	in.run(0, in.e.scaled(leanWarmReqs, 1024), nil)
	if in.churn {
		in.stop, in.stopped = make(chan struct{}), make(chan struct{})
		go in.mutator()
	}
}

func (in *leanInst) block(run int32, lat []int64) []int64 { return in.run(run, in.block0, lat) }

// mutator applies the churn schedule, one entry per churnPeriod, under
// the server's registry lock, and probes the mic's centre after each
// one. It always stops with the registry back at its base state.
func (in *leanInst) mutator() {
	defer close(in.stopped)
	w := newLeanWorker()
	tick := time.NewTicker(churnPeriod)
	defer tick.Stop()
	reg := in.srv.Registry()
	for i := 0; ; i++ {
		m := in.plan.Schedule[i%len(in.plan.Schedule)]
		switch {
		case i == 0: // the first mic pops up as the timed section starts
		case m.Add:
			select {
			case <-in.stop:
				return
			case <-tick.C:
			}
		default:
			// A removal is never skipped, so the run ends at base state.
			select {
			case <-in.stop:
			case <-tick.C:
			}
		}
		in.srv.Lock()
		if m.Add {
			err := reg.AddIncumbent(spectrum.Incumbent{Kind: spectrum.WirelessMic,
				Channel: in.plan.Channel, Location: m.Center, ProtectRadius: m.RadiusM})
			if err != nil {
				in.cnt.fail("mutation %d: %v", i, err)
			}
		} else {
			reg.RemoveIncumbents(in.plan.Channel)
			for _, inc := range in.base {
				_ = reg.AddIncumbent(inc) // was accepted once already
			}
		}
		in.srv.Unlock()
		in.muts++

		t0 := time.Now()
		w.serve(in.srv, getSpectrumBody(len(in.bodies), m.Center)) // first query after the mutation pays the rebuild
		in.rebuilds = append(in.rebuilds, float64(time.Since(t0).Nanoseconds())/1e6)
		in.cnt.attempted.Add(1)
		var env rpcResult
		if !w.snk.ok() || json.Unmarshal(w.snk.buf, &env) != nil {
			in.cnt.fail("mutation %d: probe failed: %.120s", i, w.snk.buf)
			continue
		}
		present := false
		for _, ci := range env.Result.Channels() {
			present = present || ci.Channel == in.plan.Channel
		}
		if present == m.Add {
			in.cnt.fail("mutation %d (add=%v): channel %d present=%v at the mic", i, m.Add, in.plan.Channel, present)
		}
	}
}

func (in *leanInst) stopMutator() {
	if in.stop != nil {
		close(in.stop)
		<-in.stopped
		in.stop = nil
	}
}

func (in *leanInst) verify() verdict {
	in.stopMutator()
	v := in.cnt.verdict()
	if in.churn {
		v.attempted++
		if in.muts == 0 {
			v.failed++
			v.notes = append(v.notes, "the mutator never ran")
		}
	}
	return v
}

func (in *leanInst) close() { in.stopMutator() }
