package paws

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/quick"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/spectrum"
)

var t0 = time.Date(2017, 12, 12, 9, 0, 0, 0, time.UTC)

func newTestServer(t *testing.T, dom spectrum.Domain) (*Server, *httptest.Server, *Client) {
	t.Helper()
	reg := spectrum.NewRegistry(dom)
	srv := NewServer(reg)
	srv.Now = func() time.Time { return t0 }
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL, "AP-0001")
	return srv, hs, c
}

func TestGeoConversionRoundTrip(t *testing.T) {
	f := func(x, y float64) bool {
		p := geo.Point{X: math.Mod(x, 5e4), Y: math.Mod(y, 5e4)}
		q := FromGeo(ToGeo(p))
		return p.Dist(q) < 0.01 // centimetre accuracy over a 50 km grid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInitHandshake(t *testing.T) {
	_, _, c := newTestServer(t, spectrum.EU)
	resp, err := c.Init(geo.Point{X: 100, Y: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.RulesetInfos) != 1 {
		t.Fatalf("got %d rulesets, want 1", len(resp.RulesetInfos))
	}
	rs := resp.RulesetInfos[0]
	if rs.RulesetID != "ETSI-EN-301-598-2014" || rs.Authority != "gb" {
		t.Errorf("unexpected ruleset %+v", rs)
	}
	if rs.MaxPollingSecs <= 0 {
		t.Error("ruleset must bound the polling interval")
	}
}

func TestGetSpectrumEmptyRegistry(t *testing.T) {
	_, _, c := newTestServer(t, spectrum.EU)
	resp, err := c.GetSpectrum(geo.Point{X: 500, Y: 500}, 15)
	if err != nil {
		t.Fatal(err)
	}
	chans := resp.Channels()
	if len(chans) != 40 {
		t.Fatalf("got %d channels, want all 40 EU channels", len(chans))
	}
	for _, ci := range chans {
		if ci.WidthHz != 8e6 {
			t.Fatalf("channel %d width %g, want 8 MHz", ci.Channel, ci.WidthHz)
		}
		if ci.MaxEIRPdBm != 36 {
			t.Fatalf("channel %d cap %g dBm", ci.Channel, ci.MaxEIRPdBm)
		}
		if !ci.Until.After(t0) {
			t.Fatalf("channel %d lease not in the future", ci.Channel)
		}
	}
	if !resp.NeedsSpectrumReport {
		t.Error("server should request spectrum-use reports")
	}
}

func TestGetSpectrumRespectsIncumbents(t *testing.T) {
	srv, _, c := newTestServer(t, spectrum.EU)
	ap := geo.Point{X: 1000, Y: 1000}
	srv.Lock()
	err := srv.Registry().AddIncumbent(spectrum.Incumbent{
		Kind: spectrum.WirelessMic, Channel: 38,
		Location: ap, ProtectRadius: 3000, From: t0,
	})
	srv.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.GetSpectrum(ap, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, ci := range resp.Channels() {
		if ci.Channel == 38 {
			t.Fatal("protected channel 38 offered to secondary device")
		}
	}
	if got := len(resp.Channels()); got != 39 {
		t.Fatalf("got %d channels, want 39", got)
	}
}

func TestNotifyUse(t *testing.T) {
	srv, _, c := newTestServer(t, spectrum.EU)
	ap := geo.Point{X: 10, Y: 10}
	resp, err := c.GetSpectrum(ap, 15)
	if err != nil {
		t.Fatal(err)
	}
	use := resp.Schedules[0].Spectra[:1]
	if err := c.NotifyUse(ap, use); err != nil {
		t.Fatal(err)
	}
	if got := srv.DB().Metrics().NotifyOK.Load(); got != 1 {
		t.Fatalf("NotifyOK = %d, want 1", got)
	}
}

func TestNotifyUseRejectsProtectedChannel(t *testing.T) {
	srv, _, c := newTestServer(t, spectrum.EU)
	ap := geo.Point{X: 10, Y: 10}
	srv.Lock()
	_ = srv.Registry().AddIncumbent(spectrum.Incumbent{
		Channel: 21, Location: ap, ProtectRadius: 1000, From: t0,
	})
	srv.Unlock()
	err := c.NotifyUse(ap, []FrequencyRange{{Channel: 21, StartHz: 470e6, StopHz: 478e6}})
	var rpcErr *RPCError
	if !errors.As(err, &rpcErr) || rpcErr.Code != ErrCodeInvalidValue {
		t.Fatalf("want INVALID_VALUE error, got %v", err)
	}
}

// The server announces the ETSI ruleset, which has no registration
// step: an unregistered FIXED device gets spectrum, and a registration
// is acknowledged with that ruleset.
func TestRegistrationFlow(t *testing.T) {
	_, _, c := newTestServer(t, spectrum.US)
	ap := geo.Point{X: 0, Y: 0}

	if _, err := c.GetSpectrum(ap, 15); err != nil {
		t.Fatalf("unregistered device rejected: %v", err)
	}
	rs, err := c.Register(ap, "Example Charity")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.RulesetInfos) != 1 || rs.RulesetInfos[0].RulesetID != "ETSI-EN-301-598-2014" {
		t.Fatalf("register answered %+v, want the one ETSI ruleset", rs)
	}
	if _, err := c.GetSpectrum(ap, 15); err != nil {
		t.Fatalf("registered device rejected: %v", err)
	}
}

func TestServerRejectsMissingSerial(t *testing.T) {
	_, hs, _ := newTestServer(t, spectrum.EU)
	c := NewClient(hs.URL, "")
	_, err := c.Init(geo.Point{})
	var rpcErr *RPCError
	if !errors.As(err, &rpcErr) || rpcErr.Code != ErrCodeMissing {
		t.Fatalf("want MISSING error, got %v", err)
	}
}

func TestServerRejectsUnknownMethod(t *testing.T) {
	_, hs, _ := newTestServer(t, spectrum.EU)
	body, _ := json.Marshal(rpcRequest{JSONRPC: "2.0", Method: "spectrum.paws.bogus", Params: []byte("{}"), ID: 1})
	resp, err := http.Post(hs.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr rpcResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Error == nil || rr.Error.Code != ErrCodeUnsupported {
		t.Fatalf("want UNSUPPORTED, got %+v", rr.Error)
	}
}

func TestServerRejectsBadVersionAndMethodNotAllowed(t *testing.T) {
	_, hs, _ := newTestServer(t, spectrum.EU)
	body, _ := json.Marshal(rpcRequest{JSONRPC: "1.0", Method: MethodInit, Params: []byte("{}"), ID: 7})
	resp, err := http.Post(hs.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rr rpcResponse
	_ = json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if rr.Error == nil || rr.Error.Code != ErrCodeVersion || rr.ID != 7 {
		t.Fatalf("want VERSION error echoing id, got %+v", rr)
	}

	getResp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET returned %d, want 405", getResp.StatusCode)
	}
}

// The Figure 6 interaction at protocol level: a channel in use is
// revoked in the database; the next availability answer omits it; after
// the incumbent's event, the channel returns.
func TestRevokeAndReacquireCycle(t *testing.T) {
	srv, _, c := newTestServer(t, spectrum.EU)
	ap := geo.Point{X: 0, Y: 0}
	now := t0
	srv.Now = func() time.Time { return now }

	resp, err := c.GetSpectrum(ap, 15)
	if err != nil {
		t.Fatal(err)
	}
	ch := resp.Channels()[0].Channel

	// Revoke: a wireless mic registers for 5 minutes (the paper's
	// experiment removes the channel from the DB for 5 min).
	srv.Lock()
	_ = srv.Registry().AddIncumbent(spectrum.Incumbent{
		Kind: spectrum.WirelessMic, Channel: ch, Location: ap,
		ProtectRadius: 2000, From: now, To: now.Add(5 * time.Minute),
	})
	srv.Unlock()

	resp, err = c.GetSpectrum(ap, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, ci := range resp.Channels() {
		if ci.Channel == ch {
			t.Fatal("revoked channel still offered")
		}
	}

	// 5 minutes later the channel is back.
	now = now.Add(5*time.Minute + time.Second)
	resp, err = c.GetSpectrum(ap, 15)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ci := range resp.Channels() {
		if ci.Channel == ch {
			found = true
		}
	}
	if !found {
		t.Fatal("channel not reoffered after incumbent event ended")
	}
}

func TestWireFormatIsJSONRPC(t *testing.T) {
	// The encoded request must carry the RFC 7545 envelope fields.
	c := NewClient("http://unused", "AP-1")
	raw, err := json.Marshal(rpcRequest{JSONRPC: "2.0", Method: MethodGetSpectrum, Params: []byte(`{}`), ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"jsonrpc", "method", "params", "id"} {
		if _, ok := m[k]; !ok {
			t.Errorf("envelope missing %q", k)
		}
	}
	_ = c
}

func TestChannelsEmptySchedules(t *testing.T) {
	var r AvailSpectrumResp
	if r.Channels() != nil {
		t.Error("no schedules should yield nil channels")
	}
}

func BenchmarkGetSpectrumRoundTrip(b *testing.B) {
	reg := spectrum.NewRegistry(spectrum.EU)
	srv := NewServer(reg)
	srv.Now = func() time.Time { return t0 }
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := NewClient(hs.URL, "AP-0001")
	p := geo.Point{X: 100, Y: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetSpectrum(p, 15); err != nil {
			b.Fatal(err)
		}
	}
}
