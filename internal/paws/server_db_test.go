package paws

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/pawsdb"
	"cellfi/internal/spectrum"
)

func rpcCall(t *testing.T, srv *Server, method string, params any) rpcResponse {
	t.Helper()
	raw, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(rpcRequest{JSONRPC: "2.0", Method: method, Params: raw, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/paws", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var resp rpcResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad RPC envelope: %v", err)
	}
	return resp
}

// TestServerLeaseAndMetricsWiring: getSpectrum grants a lease keyed on
// the device serial, a re-query renews it, and the metrics counters
// see queries and cache traffic.
func TestServerLeaseAndMetricsWiring(t *testing.T) {
	reg := spectrum.NewRegistry(spectrum.EU)
	srv := NewServer(reg)
	now := time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC)
	srv.Now = func() time.Time { return now }

	ask := func(serial string) {
		t.Helper()
		resp := rpcCall(t, srv, MethodGetSpectrum, AvailSpectrumReq{
			DeviceDesc: DeviceDescriptor{SerialNumber: serial, DeviceType: "FIXED"},
			Location:   ToGeo(geo.Point{X: 100, Y: 100}),
		})
		if resp.Error != nil {
			t.Fatalf("getSpectrum: %v", resp.Error)
		}
	}
	ask("AP-A")
	ask("AP-B")
	ask("AP-A") // renewal

	db := srv.DB()
	if n := db.Leases().Active(now); n != 2 {
		t.Fatalf("active leases = %d, want 2", n)
	}
	m := db.Snapshot(now)
	if m.Queries != 3 || m.LeasesGranted != 2 || m.LeasesRenewed != 1 {
		t.Fatalf("metrics %+v: want 3 queries, 2 grants, 1 renewal", m)
	}
	if m.CacheHits < 1 {
		t.Fatalf("same-cell re-queries should hit the cache: %+v", m)
	}
	if m.LatencyCount != 3 || m.LatencyP99Ns <= 0 {
		t.Fatalf("latency histogram not wired: %+v", m)
	}
	// Leases expire with virtual time.
	now = now.Add(13 * time.Hour)
	if n := db.Leases().Active(now); n != 0 {
		t.Fatalf("leases survived past expiry: %d", n)
	}
}

// TestCachedResponseBytesIdentical: a cache-hit response must be
// byte-identical to the cold-path response for the same virtual time,
// including the pre-marshaled spectra fast path.
func TestCachedResponseBytesIdentical(t *testing.T) {
	mk := func(opts pawsdb.Options) *Server {
		reg := spectrum.NewRegistry(spectrum.EU)
		for ch := 25; ch <= 28; ch++ {
			if err := reg.AddIncumbent(spectrum.Incumbent{
				Kind: spectrum.TVStation, Channel: ch, ProtectRadius: 1e7,
				From: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
			}); err != nil {
				t.Fatal(err)
			}
		}
		srv := NewServerWith(pawsdb.New(reg, opts))
		srv.Now = func() time.Time { return time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC) }
		return srv
	}
	body := func(srv *Server) []byte {
		raw, _ := json.Marshal(AvailSpectrumReq{
			DeviceDesc: DeviceDescriptor{SerialNumber: "AP-X", DeviceType: "FIXED"},
			Location:   ToGeo(geo.Point{X: 10, Y: 10}),
		})
		reqBody, _ := json.Marshal(rpcRequest{JSONRPC: "2.0", Method: MethodGetSpectrum, Params: raw, ID: 7})
		req := httptest.NewRequest(http.MethodPost, "/paws", bytes.NewReader(reqBody))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Body.Bytes()
	}

	cached := mk(pawsdb.Options{})
	uncached := mk(pawsdb.Options{DisableCache: true})
	cold := body(uncached)
	warm1 := body(cached) // fills cache + aux
	warm2 := body(cached) // served from cache + aux
	if !bytes.Equal(cold, warm1) || !bytes.Equal(warm1, warm2) {
		t.Fatalf("cache changed the wire bytes:\ncold  %s\nwarm1 %s\nwarm2 %s", cold, warm1, warm2)
	}
	if hits := cached.DB().Metrics().CacheHits.Load(); hits != 1 {
		t.Fatalf("expected exactly one cache hit, got %d", hits)
	}
	// The hand-assembled envelope and result must match what the
	// stdlib encoder produces for the same decoded values — this pins
	// the fast path's byte layout to encoding/json's.
	var resp rpcResponse
	if err := json.Unmarshal(warm2, &resp); err != nil {
		t.Fatal(err)
	}
	var env bytes.Buffer
	if err := json.NewEncoder(&env).Encode(resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.Bytes(), warm2) {
		t.Fatalf("envelope diverges from encoding/json output:\n fast %s\n json %s", warm2, env.Bytes())
	}
	var rawResp availSpectrumRespRaw
	if err := json.Unmarshal(resp.Result, &rawResp); err != nil {
		t.Fatal(err)
	}
	reenc, err := json.Marshal(rawResp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, []byte(resp.Result)) {
		t.Fatalf("result diverges from encoding/json output:\n fast %s\n json %s", resp.Result, reenc)
	}
	var avail AvailSpectrumResp
	if err := json.Unmarshal(resp.Result, &avail); err != nil {
		t.Fatal(err)
	}
	want := cached.Registry().AvailableAt(geo.Point{X: 10, Y: 10}, cached.Now())
	if got := avail.Channels(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded channels diverge from registry scan:\n got %v\nwant %v", got, want)
	}
}
