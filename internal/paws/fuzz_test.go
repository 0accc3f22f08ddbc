package paws

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/spectrum"
)

// FuzzParse throws arbitrary bytes at the client-side JSON-RPC
// response parser — the surface a chaos injector's malformed-JSON,
// truncation and clock-skew faults hit. It must never panic, and on
// success the decoded result must be structurally sane.
func FuzzParse(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"jsonrpc":"2.0","result":{},"id":1}`,
		`{"jsonrpc":"2.0","error":{"code":-104,"message":"outside coverage"},"id":1}`,
		`{"jsonrpc":"2.0","result":{"spectrumSchedules":[{"startTime":"2017-12-12T09:00:00Z","stopTime":"2017-12-12T21:00:00Z","spectra":[{"startHz":4.74e8,"stopHz":4.82e8,"maxEirpDbm":36,"channel":21}]}]},"id":2}`,
		`{"jsonrpc":"2.0","result":{"spectrumSchedules":[{"stopTime":"2000-01-01T00:00:00Z"}]},"id":3}`,
		`{"jsonrpc":"2.0","result":{"truncated`,
		`{"jsonrpc":"2.0","result":12345,"id":4}`,
		`null`,
		"\xff\xfe",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var out AvailSpectrumResp
		err := decodeRPCResponse(MethodGetSpectrum, body, &out)
		if err == nil {
			// A successful parse must yield a response whose Channels
			// flattening does not panic either.
			_ = out.Channels()
			return
		}
		switch err.Class {
		case Transient, Fatal, RegulatoryDeny:
		default:
			t.Fatalf("unclassified parse error %v for %q", err, body)
		}
		if err.Error() == "" {
			t.Fatalf("empty error string for %q", body)
		}
	})
}

// FuzzServerRobustness throws arbitrary bodies at the PAWS endpoint:
// the server must never panic and must always answer with either an
// HTTP error or a well-formed JSON-RPC envelope.
func FuzzServerRobustness(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"jsonrpc":"2.0"}`,
		`{"jsonrpc":"2.0","method":"spectrum.paws.init","params":{},"id":1}`,
		`{"jsonrpc":"2.0","method":"spectrum.paws.getSpectrum","params":{"deviceDesc":{"serialNumber":"x"},"location":{"latitude":52.2,"longitude":0.12}},"id":2}`,
		`{"jsonrpc":"1.0","method":"spectrum.paws.init","params":{},"id":3}`,
		`{"jsonrpc":"2.0","method":"bogus","params":null,"id":4}`,
		`{"jsonrpc":"2.0","method":"spectrum.paws.notifySpectrumUse","params":{"deviceDesc":{"serialNumber":"x"},"spectra":[{"channel":99}]},"id":5}`,
		`[1,2,3]`,
		`{"jsonrpc":"2.0","method":"spectrum.paws.init","params":"not-an-object","id":6}`,
		"\x00\x01\x02",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	reg := spectrum.NewRegistry(spectrum.EU)
	srv := NewServer(reg)
	srv.Now = func() time.Time { return time.Date(2017, 12, 12, 9, 0, 0, 0, time.UTC) }

	f.Fuzz(func(t *testing.T, body []byte) {
		resp := httptest.NewRecorder()
		srv.ServeHTTP(resp, httptest.NewRequest(http.MethodPost, "/paws", bytes.NewReader(body)))
		if resp.Code != http.StatusOK {
			return // HTTP-level rejection is fine
		}
		var rr struct {
			JSONRPC string          `json:"jsonrpc"`
			Result  json.RawMessage `json:"result"`
			Error   *RPCError       `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatalf("non-JSON 200 response for body %q: %v", body, err)
		}
		if rr.JSONRPC != "2.0" {
			t.Fatalf("response missing jsonrpc version for body %q", body)
		}
		if rr.Error == nil && rr.Result == nil {
			t.Fatalf("response carries neither result nor error for body %q", body)
		}
	})
}

// FuzzSpectrumRespBytes: over arbitrary registries, locations, times and
// clock zones, the AVAIL_SPECTRUM_RESP result the server assembles by
// hand (writeTimeJSON, premarshaled ruleset and spectra), cold and from
// the warm cache, is byte-identical to json.Marshal of the
// AvailSpectrumResp built from the registry's own linear scan.
func FuzzSpectrumRespBytes(f *testing.F) {
	f.Add(int64(1), false, 100.0, 100.0, int64(1496318400), uint32(0), int32(0))
	f.Add(int64(2), true, -2500.5, 4e4, int64(1513069200), uint32(123456789), int32(19800))
	f.Add(int64(3), false, 0.0, 0.0, int64(0), uint32(999999999), int32(-36000))
	f.Fuzz(func(t *testing.T, seed int64, us bool, x, y float64, unix int64, nanos uint32, zoneSec int32) {
		if math.IsNaN(x) || math.IsNaN(y) || math.Abs(x) > 1e6 || math.Abs(y) > 1e6 {
			return
		}
		// Any instant in 1970..2200 in any zone up to ±14 h, seconds
		// included: the range json.Marshal accepts.
		const span = 230 * 365 * 24 * 3600
		unix = (unix%span + span) % span
		zone := time.FixedZone("", int(zoneSec%(14*3600)))
		now := time.Unix(unix, int64(nanos%1e9)).In(zone)

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
		srv := NewServer(reg)
		srv.Now = func() time.Time { return now }
		req := AvailSpectrumReq{
			DeviceDesc: DeviceDescriptor{SerialNumber: "AP-F", DeviceType: "FIXED"},
			Location:   ToGeo(geo.Point{X: x, Y: y}),
		}

		avail := reg.AvailableAt(FromGeo(req.Location), now)
		stop := now.Add(reg.LeaseDuration)
		spectra := make([]FrequencyRange, 0, len(avail))
		for _, ci := range avail {
			if ci.Until.Before(stop) {
				stop = ci.Until
			}
			spectra = append(spectra, FrequencyRange{
				StartHz:    ci.CenterFreqHz - ci.WidthHz/2,
				StopHz:     ci.CenterFreqHz + ci.WidthHz/2,
				MaxEIRPdBm: ci.MaxEIRPdBm,
				Channel:    ci.Channel,
			})
		}
		want, err := json.Marshal(AvailSpectrumResp{
			Timestamp:           now,
			RulesetInfo:         srv.ruleset,
			Schedules:           []SpectrumSchedule{{StartTime: now, StopTime: stop, Spectra: spectra}},
			NeedsSpectrumReport: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			resp := rpcCall(t, srv, MethodGetSpectrum, req)
			if resp.Error != nil {
				t.Fatalf("%s: getSpectrum: %v", pass, resp.Error)
			}
			if !bytes.Equal(resp.Result, want) {
				t.Fatalf("%s result diverges from encoding/json:\n fast %s\n json %s", pass, resp.Result, want)
			}
		}
	})
}
