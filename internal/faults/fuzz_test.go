package faults

import "testing"

// FuzzParseWindows feeds arbitrary -flaky / -outages specs to
// ParseWindows: it must return an error rather than panic, and every
// window it accepts must satisfy 0 <= From < To.
func FuzzParseWindows(f *testing.F) {
	for _, s := range []string{"", "10s-30s,2m-3m", "30s-10s", "junk", "0s-1h", "-1s-2s", "1s--2s", "+1s-2s", " 1s-2s , 3s-4s", "1s-2s,", "9999999999h-1s"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		wins, err := ParseWindows(spec)
		if err != nil {
			return
		}
		for _, w := range wins {
			if w.From < 0 || w.From >= w.To {
				t.Fatalf("ParseWindows(%q) accepted window %v-%v", spec, w.From, w.To)
			}
		}
	})
}
