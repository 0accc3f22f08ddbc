package main

import (
	"strings"
	"testing"
)

// FuzzSweepLists feeds arbitrary -schemes/-aps/-clients values to the
// sweep's list parsers: each must return an error rather than panic,
// and an accepted list has one entry per comma-separated field, every
// size at least 1.
func FuzzSweepLists(f *testing.F) {
	for _, s := range []string{"cellfi,lte,oracle", "6,8,10,12,14", "6", "", ",", " 3 , 4", "0", "-1", "lte,,", "99999999999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		fields := len(strings.Split(s, ","))
		if sizes, err := parseSizes(s); err == nil {
			if len(sizes) != fields {
				t.Fatalf("parseSizes(%q) = %v: %d entries for %d fields", s, sizes, len(sizes), fields)
			}
			for _, v := range sizes {
				if v < 1 {
					t.Fatalf("parseSizes(%q) accepted %d", s, v)
				}
			}
		}
		if schemes, err := parseSchemes(s); err == nil && len(schemes) != fields {
			t.Fatalf("parseSchemes(%q) = %v: %d entries for %d fields", s, schemes, len(schemes), fields)
		}
	})
}
