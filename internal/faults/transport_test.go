package faults

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/paws"
	"cellfi/internal/spectrum"
)

// TestHandlerTransportMatchesRecorder: the response HandlerTransport
// builds in-process is the one httptest.ResponseRecorder.Result builds
// for the same exchange — status, header, body and ContentLength — for
// a PAWS server's success and error answers, a FlakyHandler outage and
// http.Error, plus a sniffed Content-Type and a header change after the
// status is written.
func TestHandlerTransportMatchesRecorder(t *testing.T) {
	now := time.Date(2017, 12, 12, 9, 0, 0, 0, time.UTC)
	srv := paws.NewServer(spectrum.NewRegistry(spectrum.EU))
	srv.Now = func() time.Time { return now }
	params := `{"deviceDesc":{"serialNumber":"AP-1","etsiEnDeviceType":"FIXED"},"location":` +
		mustJSON(t, paws.ToGeo(geo.Point{X: 100, Y: 100})) + `}`
	rpc := func(method, params string) string {
		return `{"jsonrpc":"2.0","method":"` + method + `","params":` + params + `,"id":7}`
	}
	flaky := &FlakyHandler{Inner: srv, Windows: []Window{{From: 0, To: time.Hour}},
		Start: now, Now: func() time.Time { return now }}
	for _, c := range []struct {
		name    string
		handler http.Handler
		method  string
		body    string
	}{
		{"paws getSpectrum", srv, http.MethodPost, rpc(paws.MethodGetSpectrum, params)},
		{"paws init", srv, http.MethodPost, rpc(paws.MethodInit, params)},
		{"paws notify", srv, http.MethodPost, rpc(paws.MethodNotifyUse, params)},
		{"paws rpc error", srv, http.MethodPost, rpc("bogus", params)},
		{"paws malformed", srv, http.MethodPost, `{"jsonrpc":`},
		{"paws GET", srv, http.MethodGet, ""},
		{"flaky outage", flaky, http.MethodPost, rpc(paws.MethodGetSpectrum, params)},
		{"http.Error", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "teapot", http.StatusTeapot)
		}), http.MethodPost, ""},
		{"sniffed", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "<html><body>hi</body></html>")
		}), http.MethodPost, ""},
		{"late header", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain")
			w.WriteHeader(http.StatusCreated)
			w.Header().Set("X-Late", "ignored")
			io.WriteString(w, "hello")
		}), http.MethodPost, ""},
		{"no write", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusNoContent)
		}), http.MethodPost, ""},
	} {
		req := func() *http.Request {
			return httptest.NewRequest(c.method, "http://paws.test/paws", strings.NewReader(c.body))
		}
		rec := httptest.NewRecorder()
		c.handler.ServeHTTP(rec, req())
		want := rec.Result()
		got, err := HandlerTransport{Handler: c.handler}.RoundTrip(req())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		gb, _ := io.ReadAll(got.Body)
		wb, _ := io.ReadAll(want.Body)
		if got.StatusCode != want.StatusCode || got.Status != want.Status ||
			!reflect.DeepEqual(got.Header, want.Header) || !bytes.Equal(gb, wb) ||
			got.ContentLength != want.ContentLength || got.Proto != want.Proto {
			t.Errorf("%s:\n transport %d %q %v len=%d %q\n recorder  %d %q %v len=%d %q", c.name,
				got.StatusCode, got.Status, got.Header, got.ContentLength, gb,
				want.StatusCode, want.Status, want.Header, want.ContentLength, wb)
		}
		if err := got.Body.Close(); err != nil {
			t.Errorf("%s: close: %v", c.name, err)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
