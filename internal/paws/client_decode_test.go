package paws

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cellfi/internal/faults"
	"cellfi/internal/geo"
	"cellfi/internal/spectrum"
)

// twoStepDecode is the reference for decodeRPCResponse with every body
// taking the two-step decode: the envelope into rpcResponse with the
// result kept raw, then the result a second time into its own type.
func twoStepDecode(method string, body []byte, result any) *Error {
	var resp rpcResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return &Error{Method: method, Class: Transient,
			Err: fmt.Errorf("decode response: %w", err)}
	}
	if resp.Error != nil {
		return &Error{Method: method, Class: classifyRPC(resp.Error), Err: resp.Error}
	}
	if result != nil {
		reflect.ValueOf(result).Elem().SetZero()
		if err := json.Unmarshal(resp.Result, result); err != nil {
			return &Error{Method: method, Class: Transient,
				Err: fmt.Errorf("decode result: %w", err)}
		}
	}
	return nil
}

// FuzzClientDecode: over arbitrary response bodies, decodeRPCResponse
// into an AvailSpectrumResp agrees with twoStepDecode: both succeed
// with reflect.DeepEqual results, or both fail with the same class and
// error text. Both results start from the same stale value, as a retry
// reuses one.
func FuzzClientDecode(f *testing.F) {
	const (
		rs    = `"rulesetInfo":{"authority":"gb","rulesetId":"ETSI-EN-301-598-2014","maxLocationChange":50,"maxPollingSecs":3600}`
		rng   = `{"startHz":4.7e8,"stopHz":4.78e8,"maxEirpDbm":36,"channel":21}`
		sched = `{"startTime":"2017-12-12T09:00:00Z","stopTime":"2017-12-12T21:00:00Z","spectra":[` + rng + `]}`
	)
	resp := func(result string) string { return `{"jsonrpc":"2.0","result":` + result + `,"id":7}` + "\n" }
	avail := func(members string) string { return resp(`{` + members + `}`) }
	full := avail(`"timestamp":"2017-12-12T09:00:00Z",` + rs + `,"spectrumSchedules":[` + sched + `],"needsSpectrumReport":true`)
	seeds := []string{
		// What the scanner takes: a server-shaped answer; empty arrays
		// (the server sends "spectra":[] when every channel is
		// blocked); times with offsets and fractions; unknown keys at
		// every level; whitespace between tokens; members in any
		// order; an absent id; an empty result.
		full,
		avail(`"timestamp":"2017-12-12T09:00:00Z","spectrumSchedules":[]`),
		avail(`"spectrumSchedules":[{"startTime":"2017-12-12T09:00:00Z","stopTime":"2017-12-12T21:00:00Z","spectra":[]}]`),
		avail(`"spectrumSchedules":[{"spectra":[]},{"spectra":[` + rng + `,` + rng + `]}]`),
		avail(`"timestamp":"2017-12-12T09:00:00.123456789+05:30","spectrumSchedules":[{"startTime":"2017-12-12T09:00:00.5-08:00","stopTime":"2017-12-12T21:00:00.000001+14:00"}]`),
		avail(`"timestamp":"1970-01-01T00:00:00+00:00","spectrumSchedules":[{"startTime":"2199-12-31T23:59:59.999999999Z"}]`),
		`{"x":[1,true,false,"s",{"y":-0.5e-3,"z":[]}],"jsonrpc":"1.0","result":{"x":{},` + rs[:len(rs)-1] + `,"x":"y"},"spectrumSchedules":[{"x":[],"spectra":[{"x":1,"channel":-3,"startHz":-0,"stopHz":1E+2,"maxEirpDbm":0.25}]}]},"id":-9223372036854775808,"y":2}`,
		" \t\r\n{ \"jsonrpc\" : \"2.0\" , \"result\" : { \"needsSpectrumReport\" : false , \"spectrumSchedules\" : [ { \"spectra\" : [ ] } ] } } \n",
		`{"result":{"needsSpectrumReport":true},"id":3,"jsonrpc":""}`,
		`{"jsonrpc":"2.0","result":{}}`,
		resp(`{}`),
		// An error member: with any value, null included, and beside a
		// result in either order.
		`{"jsonrpc":"2.0","error":{"code":-104,"message":"outside coverage"},"id":1}`,
		`{"jsonrpc":"2.0","error":{"code":-102,"message":"x"},"result":{},"id":1}`,
		`{"jsonrpc":"2.0","result":{"needsSpectrumReport":true},"error":{"code":-302,"message":"x"},"id":1}`,
		`{"jsonrpc":"2.0","result":{"needsSpectrumReport":true},"error":null,"id":1}`,
		`{"jsonrpc":"2.0","error":{},"id":1}`,
		`{"jsonrpc":"2.0","error":5,"id":1}`,
		// An absent, null or non-object result.
		`{"jsonrpc":"2.0","id":1}`,
		resp(`null`),
		resp(`12345`),
		resp(`"x"`),
		resp(`[]`),
		resp(`true`),
		// An escape, a byte >= 0x80 or a control byte in a string.
		avail(`"rulesetInfo":{"authority":"g\u0062"}`),
		avail(`"rulesetInfo":{"authority":"gé"}`),
		avail(`"rulesetInfo":{"authority":"g` + "\t" + `b"}`),
		avail(`"timestamp":"2017-12-12T09:00:00\u005a"`),
		`{"jsonrpc":"2.0","result":{},"id":1,"n\u006fte":1}`,
		// null in a known field, an unknown one, the id.
		avail(`"timestamp":null`),
		avail(`"spectrumSchedules":null`),
		avail(`"spectrumSchedules":[{"spectra":null}]`),
		avail(`"spectrumSchedules":[{"spectra":[null]}]`),
		avail(`"x":null`),
		`{"jsonrpc":"2.0","result":{},"id":null}`,
		`{"jsonrpc":null,"result":{},"id":1}`,
		// A repeated known key, at every level.
		`{"jsonrpc":"2.0","result":{"needsSpectrumReport":true},"result":{"timestamp":"2017-12-12T09:00:00Z"},"id":1}`,
		`{"jsonrpc":"2.0","jsonrpc":"2.0","result":{},"id":1}`,
		`{"jsonrpc":"2.0","result":{},"id":1,"id":2}`,
		avail(`"needsSpectrumReport":true,"needsSpectrumReport":false`),
		avail(`"rulesetInfo":{"authority":"gb","authority":"us"}`),
		avail(`"spectrumSchedules":[{"spectra":[],"spectra":[` + rng + `]}]`),
		avail(`"spectrumSchedules":[{"spectra":[{"channel":21,"channel":30}]}]`),
		// A key that only case-folds to a known one.
		`{"jsonrpc":"2.0","Result":{},"id":1}`,
		`{"jsonrpc":"2.0","result":{},"ERROR":{"code":1,"message":"x"},"id":1}`,
		`{"jsonrpc":"2.0","result":{},"ID":1}`,
		avail(`"Timestamp":"2017-12-12T09:00:00Z"`),
		avail(`"rulesetInfo":{"RULESETID":"x"}`),
		avail(`"spectrumSchedules":[{"Spectra":[]}]`),
		avail(`"spectrumSchedules":[{"spectra":[{"Channel":21}]}]`),
		// A value of the wrong JSON type.
		avail(`"timestamp":12`),
		avail(`"needsSpectrumReport":"yes"`),
		avail(`"needsSpectrumReport":1`),
		avail(`"rulesetInfo":[]`),
		avail(`"rulesetInfo":{"maxPollingSecs":"3600"}`),
		avail(`"spectrumSchedules":{}`),
		avail(`"spectrumSchedules":[5]`),
		avail(`"spectrumSchedules":[{"spectra":{}}]`),
		avail(`"spectrumSchedules":[{"spectra":[5]}]`),
		avail(`"spectrumSchedules":[{"spectra":[{"channel":"21"}]}]`),
		avail(`"spectrumSchedules":[{"startTime":true}]`),
		`{"jsonrpc":2,"result":{},"id":1}`,
		`{"jsonrpc":"2.0","result":{},"id":"1"}`,
		// A number strconv rejects where encoding/json calls it.
		`{"jsonrpc":"2.0","result":{},"id":1e3}`,
		`{"jsonrpc":"2.0","result":{},"id":1.0}`,
		`{"jsonrpc":"2.0","result":{},"id":9223372036854775808}`,
		avail(`"rulesetInfo":{"maxPollingSecs":1.5}`),
		avail(`"rulesetInfo":{"maxLocationChange":1e400}`),
		avail(`"spectrumSchedules":[{"spectra":[{"channel":21.0}]}]`),
		avail(`"spectrumSchedules":[{"spectra":[{"startHz":-1e309}]}]`),
		// Times the strict RFC 3339 parse refuses.
		avail(`"timestamp":"2017-12-12"`),
		avail(`"timestamp":"2017-12-12T09:00:00"`),
		avail(`"timestamp":"2017-12-12T24:00:00Z"`),
		avail(`"timestamp":"2017-12-12T09:00:00+24:00"`),
		avail(`"timestamp":"2017-12-12t09:00:00z"`),
		avail(`"timestamp":"10000-01-01T00:00:00Z"`),
		avail(`"timestamp":""`),
		// Invalid numbers, literals and punctuation.
		avail(`"x":015`),
		avail(`"x":-`),
		avail(`"x":1.`),
		avail(`"x":1e+`),
		avail(`"needsSpectrumReport":tru`),
		avail(`"needsSpectrumReport":truex`),
		avail(`"spectrumSchedules":[{},]`),
		avail(`"needsSpectrumReport":true,`),
		// Nesting past the scanner's depth limit.
		avail(`"x":` + strings.Repeat("[", 40) + strings.Repeat("]", 40)),
		avail(`"x":` + strings.Repeat(`{"a":`, 40) + `1` + strings.Repeat("}", 40)),
		// Trailing bytes, truncation, not JSON at all.
		full + ` x`,
		full + `{}`,
		full[:len(full)/2],
		`{"jsonrpc":"2.0","result":{"truncated`,
		`null`,
		`[]`,
		``,
		"\xff\xfe",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	stale := func() AvailSpectrumResp {
		return AvailSpectrumResp{
			Timestamp:   time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC),
			RulesetInfo: RulesetInfo{Authority: "stale", MaxPollingSecs: 9},
			Schedules:   []SpectrumSchedule{{Spectra: []FrequencyRange{{Channel: 99}}}},
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, want := stale(), stale()
		gerr := decodeRPCResponse(MethodGetSpectrum, body, &got)
		werr := twoStepDecode(MethodGetSpectrum, body, &want)
		switch {
		case (gerr == nil) != (werr == nil):
			t.Fatalf("body %q: one-pass err %v, two-step err %v", body, gerr, werr)
		case gerr == nil:
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("body %q:\n one-pass %#v\n two-step %#v", body, got, want)
			}
		case gerr.Class != werr.Class || gerr.Error() != werr.Error():
			t.Fatalf("body %q:\n one-pass %v (%v)\n two-step %v (%v)", body, gerr, gerr.Class, werr, werr.Class)
		}
	})
}

// spectrumWorld builds a server on a random registry, with the domain,
// location and clock FuzzSpectrumRespBytes draws: up to 12 random
// incumbents around (x, y), any instant in 1970..2200 in any zone up
// to ±14 h. blockAll adds a mic on every channel, so the answer offers
// none.
func spectrumWorld(t *testing.T, seed int64, us bool, x, y float64, unix int64, nanos uint32, zoneSec int32, blockAll bool) (*Server, AvailSpectrumReq) {
	t.Helper()
	const span = 230 * 365 * 24 * 3600
	unix = (unix%span + span) % span
	now := time.Unix(unix, int64(nanos%1e9)).In(time.FixedZone("", int(zoneSec%(14*3600))))
	domain := spectrum.EU
	if us {
		domain = spectrum.US
	}
	reg := spectrum.NewRegistry(domain)
	rng := rand.New(rand.NewSource(seed))
	first, last := domain.ChannelRange()
	for i := rng.Intn(12); i > 0; i-- {
		inc := spectrum.Incumbent{
			Kind:          spectrum.IncumbentKind(rng.Intn(2)),
			Channel:       first + rng.Intn(last-first+1),
			Location:      geo.Point{X: x + rng.NormFloat64()*2e4, Y: y + rng.NormFloat64()*2e4},
			ProtectRadius: rng.Float64() * 3e4,
			From:          now.Add(-time.Duration(rng.Int63n(int64(48 * time.Hour)))),
		}
		if rng.Intn(2) == 0 {
			inc.To = inc.From.Add(time.Duration(rng.Int63n(int64(96 * time.Hour))))
		}
		if err := reg.AddIncumbent(inc); err != nil {
			t.Fatal(err)
		}
	}
	for ch := first; blockAll && ch <= last; ch++ {
		if err := reg.AddIncumbent(spectrum.Incumbent{Kind: spectrum.WirelessMic, Channel: ch,
			Location: geo.Point{X: x, Y: y}, ProtectRadius: 5000, From: now.Add(-time.Hour)}); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(reg)
	srv.Now = func() time.Time { return now }
	return srv, AvailSpectrumReq{
		DeviceDesc: DeviceDescriptor{SerialNumber: "AP-F", DeviceType: "FIXED"},
		Location:   ToGeo(geo.Point{X: x, Y: y}),
	}
}

// Every getSpectrum response paws.Server renders, cold and from the
// warm cache, is taken by the scanner and decodes to what the two-step
// decode gives: real traffic runs the fast path, not only the fuzz
// corpus. The worlds are FuzzSpectrumRespBytes' seeds, 200 draws from
// its domain and the same with every channel blocked.
func TestServerSpectrumRespTakesScanner(t *testing.T) {
	type world struct {
		seed      int64
		us        bool
		x, y      float64
		unix      int64
		nanos     uint32
		zoneSec   int32
		blockAll  bool
		wantEmpty bool
	}
	worlds := []world{
		{1, false, 100, 100, 1496318400, 0, 0, false, false},
		{2, true, -2500.5, 4e4, 1513069200, 123456789, 19800, false, false},
		{3, false, 0, 0, 0, 999999999, -36000, false, false},
		{4, false, 100, 100, 1513069200, 5e8, 3600, true, true},
		{5, true, 0, 0, 1513069200, 0, -25200, true, true},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		worlds = append(worlds, world{rng.Int63(), rng.Intn(2) == 0, rng.NormFloat64() * 3e4, rng.NormFloat64() * 3e4,
			rng.Int63(), rng.Uint32(), int32(rng.Uint32()), rng.Intn(8) == 0, false})
	}
	scanned := 0
	for _, w := range worlds {
		srv, req := spectrumWorld(t, w.seed, w.us, w.x, w.y, w.unix, w.nanos, w.zoneSec, w.blockAll)
		params, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		body := append(requestHead(MethodGetSpectrum, params), "1}"...)
		for _, pass := range []string{"cold", "warm"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/paws", bytes.NewReader(body)))
			var got, want AvailSpectrumResp
			if err := twoStepDecode(MethodGetSpectrum, rec.Body.Bytes(), &want); err != nil {
				t.Fatalf("world %+v, %s: %v", w, pass, err)
			}
			if !new(scanner).spectrumResp(rec.Body.Bytes(), &got) {
				t.Fatalf("world %+v, %s: the scanner refused the server's response %s", w, pass, rec.Body.Bytes())
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("world %+v, %s:\n one-pass %#v\n two-step %#v", w, pass, got, want)
			}
			if empty := len(got.Schedules[0].Spectra) == 0; w.wantEmpty && !empty {
				t.Fatalf("world %+v: %d channels offered, want none", w, len(got.Schedules[0].Spectra))
			}
			scanned++
		}
	}
	t.Logf("%d server responses taken by the scanner", scanned)
}

// captureTransport answers every request with a fixed JSON-RPC body
// and keeps the requests, their bodies unread, for the test to read.
type captureTransport struct {
	reqs   []*http.Request
	status []int // per request; 200 once exhausted
	body   string
}

func (c *captureTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	status := http.StatusOK
	if n := len(c.reqs); n < len(c.status) {
		status = c.status[n]
	}
	c.reqs = append(c.reqs, r)
	return &http.Response{StatusCode: status, Header: http.Header{"Content-Type": {"application/json"}},
		Body: io.NopCloser(strings.NewReader(c.body)), Request: r}, nil
}

// The request envelope Client writes is byte for byte the one
// json.Marshal writes for rpcRequest, for every method and ids up to
// both ends of int64's range, with HTML-significant characters and
// U+2028 in the params. A retry writes its id into a copy: the first
// attempt's body, read only after the retry, is unchanged.
func TestRequestEnvelopeBytes(t *testing.T) {
	loc := geo.Point{X: 100, Y: -250}
	spectra := []FrequencyRange{{StartHz: 4.7e8, StopHz: 4.78e8, MaxEIRPdBm: 36, Channel: 21}}
	for _, start := range []int64{0, 41, 999_999, math.MaxInt64 - 3} {
		tr := &captureTransport{body: `{"jsonrpc":"2.0","result":{},"id":1}`}
		c := NewClient("http://db.invalid/paws", "AP-<&>\u2028")
		c.HTTPClient = &http.Client{Transport: tr}
		c.nextID = start
		dev := c.Device
		want := []struct {
			method string
			params any
		}{
			{MethodInit, InitReq{DeviceDesc: dev, Location: ToGeo(loc)}},
			{MethodRegister, RegisterReq{DeviceDesc: dev, Location: ToGeo(loc), Owner: "ops & <co>"}},
			{MethodGetSpectrum, AvailSpectrumReq{DeviceDesc: dev, Location: ToGeo(loc), AntennaHeightM: 15}},
			{MethodNotifyUse, NotifyUseReq{DeviceDesc: dev, Location: ToGeo(loc), Spectra: spectra}},
			{MethodNotifyUse, NotifyUseReq{DeviceDesc: dev, Location: ToGeo(loc), Spectra: []FrequencyRange{}}},
		}
		if _, err := c.Init(loc); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Register(loc, "ops & <co>"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.GetSpectrum(loc, 15); err != nil {
			t.Fatal(err)
		}
		if err := c.NotifyUse(loc, spectra); err != nil {
			t.Fatal(err)
		}
		if err := c.NotifyUse(loc, []FrequencyRange{}); err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			raw, err := json.Marshal(w.params)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := json.Marshal(rpcRequest{JSONRPC: "2.0", Method: w.method, Params: raw, ID: start + int64(i) + 1})
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(tr.reqs[i].Body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("%s, id %d:\n hand-written %s\n json.Marshal %s", w.method, start+int64(i)+1, got, ref)
			}
		}
	}

	tr := &captureTransport{status: []int{http.StatusServiceUnavailable}, body: `{"jsonrpc":"2.0","result":{},"id":1}`}
	c := NewClient("http://db.invalid/paws", "AP-RETRY")
	c.HTTPClient = &http.Client{Transport: tr}
	c.Retry = RetryPolicy{MaxAttempts: 2, Sleep: func(time.Duration) {}}
	if _, err := c.Init(loc); err != nil {
		t.Fatal(err)
	}
	if len(tr.reqs) != 2 {
		t.Fatalf("%d attempts, want 2", len(tr.reqs))
	}
	for i, r := range tr.reqs {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf(`,"id":%d}`, i+1); !bytes.HasSuffix(b, []byte(want)) {
			t.Fatalf("attempt %d sent %s, want it to end %s", i+1, b, want)
		}
	}
}

// TestClientGetSpectrumAllocs pins the allocations of one
// Client.GetSpectrum through faults.HandlerTransport, the in-process
// path Fig. 6 runs: client, transport, response writer and server
// together. It measures 27 on go1.24, most of them net/http's client
// side; with httptest's recorder as the writer it measured 36, and
// with the two-step decode and a marshaled envelope 72.
func TestClientGetSpectrumAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	now := time.Date(2017, 12, 12, 9, 0, 0, 0, time.UTC)
	srv := NewServer(spectrum.NewRegistry(spectrum.EU))
	srv.Now = func() time.Time { return now }
	c := NewClient("http://db.invalid/paws", "AP-000001")
	c.HTTPClient = &http.Client{Transport: faults.HandlerTransport{Handler: srv}}
	p := geo.Point{X: 100, Y: 100}
	call := func() {
		if _, err := c.GetSpectrum(p, 15); err != nil {
			t.Fatal(err)
		}
	}
	call() // grant the lease, fill the cache and the pools
	const max = 27
	if got := testing.AllocsPerRun(200, call); got > max {
		t.Errorf("%v allocations per GetSpectrum, want at most %v", got, max)
	}
}

// A decoded response owns every byte it keeps: overwriting the pooled
// buffer it was read from leaves it unchanged, on the scanner's path
// and on the two-step fallback's.
func TestDecodedResponseOwnsItsBytes(t *testing.T) {
	now := time.Date(2017, 12, 12, 9, 0, 0, 0, time.FixedZone("", 5400))
	srv := NewServer(spectrum.NewRegistry(spectrum.EU))
	srv.Now = func() time.Time { return now }
	params, err := json.Marshal(AvailSpectrumReq{DeviceDesc: DeviceDescriptor{SerialNumber: "AP-1"}, Location: ToGeo(geo.Point{})})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/paws",
		bytes.NewReader(append(requestHead(MethodGetSpectrum, params), "1}"...))))
	scanned := rec.Body.String()
	fallback := strings.Replace(scanned, `"authority":"gb"`, `"authority":"g\u0062"`, 1)
	for _, c := range []struct {
		name, body string
		scanner    bool
	}{{"scanner", scanned, true}, {"fallback", fallback, false}} {
		if got := new(scanner).spectrumResp([]byte(c.body), new(AvailSpectrumResp)); got != c.scanner {
			t.Fatalf("%s: scanner took the body: %v, want %v", c.name, got, c.scanner)
		}
		bb := bufPool.Get().(*bytes.Buffer)
		bb.Reset()
		bb.WriteString(c.body)
		var out AvailSpectrumResp
		if err := decodeRPCResponse(MethodGetSpectrum, bb.Bytes(), &out); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		before, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		buf := bb.Bytes()[:bb.Cap()]
		for i := range buf {
			buf[i] = 'x'
		}
		bufPool.Put(bb)
		after, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) || len(out.Schedules[0].Spectra) == 0 || out.RulesetInfo.Authority != "gb" {
			t.Fatalf("%s: the decoded response changed with its buffer:\n before %s\n after  %s", c.name, before, after)
		}
	}
}
