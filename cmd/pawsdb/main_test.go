package main

import (
	"testing"

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
