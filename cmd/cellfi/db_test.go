package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"cellfi/internal/geo"
	"cellfi/internal/paws"
	"cellfi/internal/spectrum"
)

func TestParseMic(t *testing.T) {
	cases := []struct {
		spec     string
		dom      spectrum.Domain
		ch, mins int
		wantErr  bool
	}{
		{spec: "30:15", dom: spectrum.EU, ch: 30, mins: 15},
		{spec: "14:1", dom: spectrum.US, ch: 14, mins: 1},
		{spec: "30", dom: spectrum.EU, wantErr: true},     // missing colon
		{spec: "x:15", dom: spectrum.EU, wantErr: true},   // non-numeric channel
		{spec: "30:ten", dom: spectrum.EU, wantErr: true}, // non-numeric minutes
		{spec: "30:0", dom: spectrum.EU, wantErr: true},   // mic that protects nothing
		{spec: "30:-5", dom: spectrum.EU, wantErr: true},  // To before From
		{spec: "14:15", dom: spectrum.EU, wantErr: true},  // below the EU plan
		{spec: "61:15", dom: spectrum.EU, wantErr: true},  // above the EU plan
		{spec: "52:15", dom: spectrum.US, wantErr: true},  // above the US plan
	}
	for _, c := range cases {
		ch, mins, err := parseMic(c.spec, c.dom)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseMic(%q, %v) = %d, %d; want an error", c.spec, c.dom, ch, mins)
			}
			continue
		}
		if err != nil || ch != c.ch || mins != c.mins {
			t.Errorf("parseMic(%q, %v) = %d, %d, %v; want %d, %d", c.spec, c.dom, ch, mins, err, c.ch, c.mins)
		}
	}
}

func TestParseBlock(t *testing.T) {
	cases := []struct {
		spec    string
		dom     spectrum.Domain
		want    []int
		wantErr bool
	}{
		{spec: "", dom: spectrum.EU},
		{spec: "30", dom: spectrum.EU, want: []int{30}},
		{spec: "21, 60", dom: spectrum.EU, want: []int{21, 60}},
		{spec: "14,51", dom: spectrum.US, want: []int{14, 51}},
		{spec: "30,", dom: spectrum.EU, wantErr: true},   // empty entry
		{spec: "x", dom: spectrum.EU, wantErr: true},     // non-numeric
		{spec: "14", dom: spectrum.EU, wantErr: true},    // below the EU plan
		{spec: "61", dom: spectrum.EU, wantErr: true},    // above the EU plan
		{spec: "30,52", dom: spectrum.US, wantErr: true}, // one entry above the US plan
	}
	for _, c := range cases {
		got, err := parseBlock(c.spec, c.dom)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseBlock(%q, %v) = %v; want an error", c.spec, c.dom, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseBlock(%q, %v) = %v, %v; want %v", c.spec, c.dom, got, err, c.want)
		}
	}
}

// TestDBDrainsInFlightRequest cancels the database while a request is
// in flight: the request still gets its answer, the exit summary
// counts it, and the verb returns 0.
func TestDBDrainsInFlightRequest(t *testing.T) {
	stderr := newSyncBuffer()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan int, 1)
	go func() { done <- run(ctx, []string{"db", "-addr", "127.0.0.1:0"}, io.Discard, stderr) }()
	addr := stderr.waitFor(t, regexp.MustCompile(`listening on (127\.0\.0\.1:\d+) `))[1]

	params, err := json.Marshal(paws.AvailSpectrumReq{
		DeviceDesc: paws.DeviceDescriptor{SerialNumber: "AP-0001"},
		Location:   paws.ToGeo(geo.Point{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(paws.RPCRequest(paws.MethodGetSpectrum, params, 1))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// With Expect: 100-continue the server answers "100 Continue" once
	// the handler starts reading the body: the request is in flight.
	fmt.Fprintf(conn, "POST /paws HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\nExpect: 100-continue\r\nConnection: close\r\n\r\n", addr, len(body))
	br := bufio.NewReader(conn)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "HTTP/1.1 100") {
		t.Fatalf("want 100 Continue, got %q, %v", line, err)
	}
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	cancel()
	stderr.waitFor(t, regexp.MustCompile(`shutting down: draining`))
	if _, err := conn.Write(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("in-flight request lost: %v", err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(reply), `"result"`) {
		t.Fatalf("in-flight request: status %d, body %q, err %v", resp.StatusCode, reply, err)
	}
	if code := exitCode(t, done, stderr); code != 0 {
		t.Fatalf("db = %d after cancel, want 0; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "served 1 queries") {
		t.Errorf("exit summary missing or wrong; stderr:\n%s", stderr.String())
	}
}
