package paws

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/pawsdb"
	"cellfi/internal/spectrum"
)

// twoStepServeHTTP is the reference for Server.ServeHTTP with every
// body taking the two-step decode: the envelope into rpcRequest with
// params kept raw, then the params a second time into the method's own
// request type. It calls the same handlers and envelope writer as the
// server, so a difference between the two can only come from the
// decode.
func twoStepServeHTTP(s *Server, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "paws: POST only", http.StatusMethodNotAllowed)
		return
	}
	met := s.db.Metrics()
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "paws: read error", http.StatusBadRequest)
		met.Errors.Add(1)
		return
	}
	var req rpcRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeRPC(w, rpcResponse{JSONRPC: "2.0", Error: &RPCError{ErrCodeInvalidValue, "malformed JSON-RPC"}, ID: 0})
		met.Errors.Add(1)
		return
	}
	if req.JSONRPC != "2.0" {
		writeRPC(w, rpcResponse{JSONRPC: "2.0", Error: &RPCError{ErrCodeVersion, "jsonrpc must be 2.0"}, ID: req.ID})
		met.Errors.Add(1)
		return
	}
	result, rpcErr := twoStepDispatch(s, req.Method, req.Params)
	resp := rpcResponse{JSONRPC: "2.0", ID: req.ID}
	switch {
	case rpcErr != nil:
		resp.Error = rpcErr
		met.Errors.Add(1)
	default:
		if rr, ok := result.(rawResult); ok {
			resp.Result = rr.buf.Bytes()
		} else if raw, err := json.Marshal(result); err != nil {
			resp.Error = &RPCError{ErrCodeInvalidValue, "encode failure"}
		} else {
			resp.Result = raw
		}
	}
	writeRPC(w, resp)
}

func twoStepDispatch(s *Server, method string, params json.RawMessage) (any, *RPCError) {
	switch method {
	case MethodInit:
		var p InitReq
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, &RPCError{ErrCodeInvalidValue, "bad INIT_REQ"}
		}
		return s.handleInit(p)
	case MethodRegister:
		var p RegisterReq
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, &RPCError{ErrCodeInvalidValue, "bad REGISTRATION_REQ"}
		}
		return s.handleRegister(p)
	case MethodGetSpectrum:
		var p AvailSpectrumReq
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, &RPCError{ErrCodeInvalidValue, "bad AVAIL_SPECTRUM_REQ"}
		}
		return s.handleGetSpectrum(p)
	case MethodNotifyUse:
		var p NotifyUseReq
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, &RPCError{ErrCodeInvalidValue, "bad SPECTRUM_USE_NOTIFY"}
		}
		return s.handleNotifyUse(p)
	default:
		return nil, &RPCError{ErrCodeUnsupported, fmt.Sprintf("unsupported method %q", method)}
	}
}

// FuzzOnePassDecode: over arbitrary request bodies, Server.ServeHTTP
// answers byte for byte what twoStepServeHTTP answers, and leaves the
// same side effects: leases, registrations and the database counters
// (notify accepted and rejected, errors, queries, cache traffic). Each
// body goes twice to a fresh pair of servers on one fixed clock, so
// renewals and registrations are compared too.
func FuzzOnePassDecode(f *testing.F) {
	const (
		get    = `"method":"spectrum.paws.getSpectrum"`
		dev    = `"deviceDesc":{"serialNumber":"AP-1","etsiEnDeviceType":"FIXED"}`
		loc    = `"location":{"latitude":52.2053,"longitude":0.1218}`
		farLoc = `"location":{"latitude":52.5,"longitude":0.9}`
	)
	envelope := func(method, rest string) string { return `{"jsonrpc":"2.0",` + method + `,` + rest + `,"id":9}` }
	seeds := []string{
		// One params key per method, the path every real client takes.
		envelope(get, `"params":{`+dev+`,`+loc+`,"antennaHeight":15}`),
		envelope(`"method":"spectrum.paws.init"`, `"params":{`+dev+`,`+loc+`}`),
		envelope(`"method":"spectrum.paws.register"`, `"params":{`+dev+`,`+loc+`,"deviceOwner":"op"}`),
		envelope(`"method":"spectrum.paws.notifySpectrumUse"`, `"params":{`+dev+`,`+loc+`,"spectra":[{"channel":21}]}`),
		envelope(`"method":"spectrum.paws.notifySpectrumUse"`, `"params":{`+dev+`,`+loc+`,"spectra":[{"channel":30}]}`),
		envelope(`"method":"spectrum.paws.notifySpectrumUse"`, `"params":{`+dev+`,`+loc+`,"spectra":[]}`),
		// Duplicate params keys: the raw decode keeps the last, a
		// struct would merge them.
		envelope(get, `"params":{`+dev+`,`+loc+`},"params":{`+farLoc+`}`),
		envelope(get, `"params":{`+farLoc+`},"params":{`+dev+`}`),
		envelope(get, `"params":{`+dev+`},"PARAMS":{`+loc+`}`),
		envelope(get, `"params":null,"params":{`+dev+`}`),
		// Other spellings that encoding/json matches to params.
		envelope(get, `"PARAMS":{`+dev+`,`+loc+`}`),
		envelope(get, `"Params":{`+dev+`,`+loc+`}`),
		envelope(get, `"p\u0061rams":{`+dev+`,`+loc+`}`),
		envelope(get, `"paramſ":{`+dev+`,`+loc+`}`),
		envelope(get, `"params":{`+dev+`},"p\u0061rams":{`+farLoc+`}`),
		envelope(get, `"params":{`+dev+`},"paramſ":{`+farLoc+`}`),
		// Absent, null and non-object params.
		`{"jsonrpc":"2.0","method":"spectrum.paws.getSpectrum","id":9}`,
		envelope(get, `"params":null`),
		envelope(get, `"params":"not-an-object"`),
		envelope(get, `"params":[1,2]`),
		envelope(get, `"params":7`),
		envelope(get, `"params":{}`),
		// A wrongly typed field belonging to another method: INIT
		// ignores spectra, getSpectrum owns antennaHeight.
		envelope(`"method":"spectrum.paws.init"`, `"params":{`+dev+`,"spectra":5}`),
		envelope(`"method":"spectrum.paws.register"`, `"params":{`+dev+`,"antennaHeight":"high"}`),
		envelope(get, `"params":{`+dev+`,"deviceOwner":[1]}`),
		envelope(get, `"params":{`+dev+`,"antennaHeight":"high"}`),
		// Unknown method, bad version, malformed envelope.
		envelope(`"method":"bogus"`, `"params":{`+dev+`}`),
		envelope(`"method":"bogus"`, `"params":5`),
		`{"jsonrpc":"1.0","method":"spectrum.paws.init","params":{},"id":3}`,
		`{"jsonrpc":"2.0","method":"spectrum.paws.init","params":{},"id":"x"}`,
		`{"jsonrpc":"2.0","method":"spectrum.paws.init","params":{"deviceDesc":{"serialNumber":"a"}},"id":1`,
		`"params"`,
		`null`,
		``,
		// What the scanner takes itself: unknown keys at every level
		// (skipped after a validity check), whitespace between tokens,
		// empty objects and arrays, an unfamiliar device type, every
		// spectra field.
		envelope(get, `"params":{"deviceDesc":{"serialNumber":"AP-1","etsiEnDeviceType":"MODE_9","rulesetIds":[],"x":[1,true,false,"s",{"y":-0.5e-3,"z":[]}]},`+loc+`,"extra":{}}`),
		" \t\r\n{ \"jsonrpc\" : \"2.0\" , " + get + ` , "params" : { ` + dev + ` , ` + loc + ` } , "id" : -7 } ` + "\n",
		envelope(`"method":"spectrum.paws.notifySpectrumUse"`, `"params":{`+dev+`,`+loc+`,"spectra":[{"startHz":4.7e8,"stopHz":4.78E+8,"maxEirpDbm":-1.5,"channel":21,"note":"x"},{"channel":22}]}`),
		`{"params":{` + dev + `,` + loc + `},"id":3,"method":"spectrum.paws.getSpectrum","jsonrpc":"2.0","more":[[]]}`,
		// One body per class the scanner refuses. An escape or a byte
		// >= 0x80 in a value, a control byte in a string.
		envelope(get, `"params":{"deviceDesc":{"serialNumber":"AP-\u0031"},`+loc+`}`),
		envelope(get, `"params":{"deviceDesc":{"serialNumber":"AP-é"},`+loc+`}`),
		envelope(get, `"params":{"deviceDesc":{"serialNumber":"AP`+"\t"+`1"},`+loc+`}`),
		// null in a known field, an unknown one, the id.
		envelope(get, `"params":{`+dev+`,`+loc+`,"deviceOwner":null}`),
		envelope(get, `"params":{"deviceDesc":{"serialNumber":"AP-1","modelId":null},`+loc+`}`),
		envelope(get, `"params":{`+dev+`,`+loc+`,"extra":[null]}`),
		`{"jsonrpc":"2.0",` + get + `,"params":{` + dev + `},"id":null}`,
		// A repeated known key, at every level.
		envelope(get, `"params":{"deviceDesc":{"serialNumber":"AP-1","serialNumber":"AP-2"},`+loc+`}`),
		envelope(get, `"params":{`+dev+`,"location":{"latitude":52.2,"latitude":52.5,"longitude":0.12}}`),
		envelope(`"method":"spectrum.paws.notifySpectrumUse"`, `"params":{`+dev+`,`+loc+`,"spectra":[{"channel":30,"channel":21}]}`),
		envelope(get, `"params":{`+dev+`,`+loc+`,"antennaHeight":15,"antennaHeight":30}`),
		`{"jsonrpc":"2.0","method":"bogus",` + get + `,"params":{` + dev + `},"id":1}`,
		`{"jsonrpc":"2.0",` + get + `,"params":{` + dev + `},"id":1,"id":2}`,
		// A key that only case-folds to a known one.
		envelope(get, `"params":{"deviceDesc":{"SerialNumber":"AP-1"},`+loc+`}`),
		envelope(get, `"params":{`+dev+`,"LOCATION":{"latitude":52.5,"longitude":0.9}}`),
		envelope(`"Method":"spectrum.paws.getSpectrum"`, `"params":{`+dev+`}`),
		`{"jsonrpc":"2.0",` + get + `,"params":{` + dev + `},"ID":4}`,
		// A value of the wrong JSON type.
		envelope(get, `"params":{"deviceDesc":{"serialNumber":5},`+loc+`}`),
		envelope(get, `"params":{`+dev+`,"location":{"latitude":"52.2","longitude":0.12}}`),
		envelope(get, `"params":{"deviceDesc":{"serialNumber":"AP-1","rulesetIds":"ETSI"},`+loc+`}`),
		envelope(get, `"params":{"deviceDesc":{"serialNumber":"AP-1","rulesetIds":[7]},`+loc+`}`),
		envelope(get, `"params":{"deviceDesc":[],`+loc+`}`),
		envelope(`"method":"spectrum.paws.notifySpectrumUse"`, `"params":{`+dev+`,`+loc+`,"spectra":{"channel":21}}`),
		envelope(`"method":"spectrum.paws.notifySpectrumUse"`, `"params":{`+dev+`,`+loc+`,"spectra":[{"channel":"21"}]}`),
		envelope(`"method":"spectrum.paws.notifySpectrumUse"`, `"params":{`+dev+`,`+loc+`,"spectra":[21]}`),
		envelope(`"method":7`, `"params":{`+dev+`}`),
		`{"jsonrpc":2.0,` + get + `,"params":{` + dev + `},"id":1}`,
		// A number strconv rejects where encoding/json calls it.
		`{"jsonrpc":"2.0",` + get + `,"params":{` + dev + `},"id":1e3}`,
		`{"jsonrpc":"2.0",` + get + `,"params":{` + dev + `},"id":1.0}`,
		`{"jsonrpc":"2.0",` + get + `,"params":{` + dev + `},"id":9223372036854775808}`,
		envelope(get, `"params":{`+dev+`,"location":{"latitude":1e400,"longitude":0.12}}`),
		envelope(`"method":"spectrum.paws.notifySpectrumUse"`, `"params":{`+dev+`,`+loc+`,"spectra":[{"channel":21.0}]}`),
		// Invalid numbers and literals, in known and unknown fields.
		envelope(get, `"params":{`+dev+`,`+loc+`,"antennaHeight":015}`),
		envelope(get, `"params":{`+dev+`,`+loc+`,"extra":-}`),
		envelope(get, `"params":{`+dev+`,`+loc+`,"extra":1.}`),
		envelope(get, `"params":{`+dev+`,`+loc+`,"extra":1e+}`),
		envelope(get, `"params":{`+dev+`,`+loc+`,"extra":tru}`),
		envelope(get, `"params":{`+dev+`,`+loc+`,"extra":[1,]}`),
		envelope(get, `"params":{`+dev+`,`+loc+`,}`),
		// Nesting past the scanner's depth limit.
		envelope(get, `"params":{`+dev+`,`+loc+`,"extra":`+strings.Repeat("[", 40)+strings.Repeat("]", 40)+`}`),
		envelope(get, `"params":{`+dev+`,`+loc+`,"extra":`+strings.Repeat(`{"a":`, 40)+`1`+strings.Repeat("}", 40)+`}`),
		// Trailing bytes after the envelope.
		envelope(get, `"params":{`+dev+`,`+loc+`}`) + ` x`,
		envelope(get, `"params":{`+dev+`,`+loc+`}`) + `{}`,
		// An unsupported version, a missing method.
		`{"jsonrpc":"2.1",` + get + `,"params":{` + dev + `},"id":1}`,
		`{"jsonrpc":"2.0","params":{` + dev + `},"id":1}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), false)
	}
	f.Add([]byte(seeds[0]), true)
	f.Add([]byte(seeds[2]), true)

	now := time.Date(2017, 12, 12, 9, 0, 0, 0, time.UTC)
	reg := spectrum.NewRegistry(spectrum.EU)
	if err := reg.AddIncumbent(spectrum.Incumbent{
		Kind: spectrum.WirelessMic, Channel: 30, Location: geo.Point{}, ProtectRadius: 5000,
		From: now.Add(-time.Hour), To: now.Add(time.Hour),
	}); err != nil {
		f.Fatal(err)
	}
	newServer := func(requireReg bool) *Server {
		s := NewServerWith(pawsdb.New(reg, pawsdb.Options{}))
		s.Now = func() time.Time { return now }
		s.RequireRegistration = requireReg
		return s
	}
	serve := func(handle func(http.ResponseWriter, *http.Request), body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handle(rec, httptest.NewRequest(http.MethodPost, "/paws", bytes.NewReader(body)))
		return rec
	}
	effects := func(s *Server) pawsdb.MetricsSnapshot {
		m := s.db.Snapshot(now)
		m.LatencyCount, m.LatencyMeanNs, m.LatencyP50Ns, m.LatencyP99Ns = 0, 0, 0, 0
		return m
	}

	f.Fuzz(func(t *testing.T, body []byte, requireReg bool) {
		got, want := newServer(requireReg), newServer(requireReg)
		for pass := 0; pass < 2; pass++ {
			g := serve(got.ServeHTTP, body)
			w := serve(func(rw http.ResponseWriter, r *http.Request) { twoStepServeHTTP(want, rw, r) }, body)
			if g.Code != w.Code || !reflect.DeepEqual(g.Header(), w.Header()) || !bytes.Equal(g.Body.Bytes(), w.Body.Bytes()) {
				t.Fatalf("pass %d, body %q:\n one-pass  %d %v %s\n two-step  %d %v %s",
					pass, body, g.Code, g.Header(), g.Body.Bytes(), w.Code, w.Header(), w.Body.Bytes())
			}
		}
		if g, w := effects(got), effects(want); g != w {
			t.Fatalf("body %q: database state diverges:\n one-pass %+v\n two-step %+v", body, g, w)
		}
		if !reflect.DeepEqual(got.registered, want.registered) {
			t.Fatalf("body %q: registrations diverge: one-pass %v, two-step %v", body, got.registered, want.registered)
		}
	})
}

// TestServeHTTPAllocs pins the request path's allocations: a lease
// renewal through AVAIL_SPECTRUM_REQ and an accepted
// SPECTRUM_USE_NOTIFY, each through ServeHTTP with the request and
// recorder reused. Of the two left in each, the scanner makes one (the
// serial); the other is pawsdb's materialized channel list for
// getSpectrum and the marshaled empty result for notify. The two-step
// decode of the same body costs about two dozen more.
func TestServeHTTPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	now := time.Date(2017, 12, 12, 9, 0, 0, 0, time.UTC)
	reg := spectrum.NewRegistry(spectrum.EU)
	srv := NewServer(reg)
	srv.Now = func() time.Time { return now }
	p := geo.Point{X: 100, Y: 100}
	ci := reg.AvailableAt(p, now)[0]
	dev := DeviceDescriptor{SerialNumber: "AP-000001", ManufacturerID: "cellfi", ModelID: "ap-e40",
		DeviceType: "FIXED", RulesetIDs: []string{"ETSI-EN-301-598-2014"}}
	body := func(method string, params any) []byte {
		raw, err := json.Marshal(params)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(RPCRequest(method, raw, 1))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, "/paws", rd)
	rec := httptest.NewRecorder()
	for _, c := range []struct {
		method string
		body   []byte
		max    float64
	}{
		{MethodGetSpectrum, body(MethodGetSpectrum, AvailSpectrumReq{DeviceDesc: dev, Location: ToGeo(p), AntennaHeightM: 15}), 2},
		{MethodNotifyUse, body(MethodNotifyUse, NotifyUseReq{DeviceDesc: dev, Location: ToGeo(p), Spectra: []FrequencyRange{{
			StartHz: ci.CenterFreqHz - ci.WidthHz/2, StopHz: ci.CenterFreqHz + ci.WidthHz/2,
			MaxEIRPdBm: ci.MaxEIRPdBm, Channel: ci.Channel,
		}}}), 2},
	} {
		serve := func() {
			rd.Reset(c.body)
			rec.Body.Reset()
			srv.ServeHTTP(rec, req)
		}
		serve() // grant the lease, fill the cache and the buffer pool
		var resp rpcResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error != nil {
			t.Fatalf("%s: %v %v", c.method, err, resp.Error)
		}
		if got := testing.AllocsPerRun(200, serve); got > c.max {
			t.Errorf("%s: %v allocations per request, want at most %v", c.method, got, c.max)
		}
	}
}
