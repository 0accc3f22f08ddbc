package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// goldenQuickSeed1 pins every experiment's seed-1 quick-mode output: an
// 8-byte SHA-256 prefix over each Table.String(), each series name and
// its points' float bits, and each note. prach is absent because its
// table reports host timing.
//
// Re-roll: a change that means to move a row runs
//
//	go test -run TestGolden -v ./internal/experiments
//
// pastes the printed `"id": "digest",` lines over the table below, and
// says in CHANGES.md which experiments moved and why. A digest that
// moves without such a reason is a regression.
var goldenQuickSeed1 = map[string]string{
	"table1":      "83edf2093d92d7c1",
	"fig1":        "675b278e7a6805e4",
	"fig2":        "a247f00ef5b01182",
	"fig6":        "b5a8884d5692363f",
	"fig7":        "bd46f38e238bc811",
	"fig8":        "f049c29e4f1416f7",
	"fig9a":       "6b7a4dc018da8bfd",
	"fig9b":       "139216ffa579902c",
	"fig9c":       "164a846ef87d32de",
	"theorem1":    "fb2e6fb890bfed8a",
	"overhead":    "09ad6fe47c98152e",
	"reuse":       "6034740d62de33a3",
	"lambda":      "1b9de483ce91af02",
	"sensing":     "23d5d7e0c41c6499",
	"hopping":     "a56b6d3107bf6f38",
	"hybrid":      "c267ea9e5da95b41",
	"sched":       "56450bda10a140ba",
	"uplink":      "17458c3a58b625fc",
	"aggregation": "849b4436899a5665",
	"mobility":    "02bc40aec4bf13f5",
}

// goldenFullSeed1 pins the same digest for seed-1 full mode, where the
// trial counts, density / lambda / bandwidth lists and cross-trial
// pooling that quick mode collapses to one trial are exercised. Same
// re-roll procedure; skipped under -short.
var goldenFullSeed1 = map[string]string{
	"table1":      "83edf2093d92d7c1",
	"fig1":        "7644418800182583",
	"fig2":        "ed58894575cd13f5",
	"fig6":        "b5a8884d5692363f",
	"fig7":        "1a10137477ce7f01",
	"fig8":        "4b0c9aec19dadc03",
	"fig9a":       "0b447a6406e11f89",
	"fig9b":       "6175bc7a6731ec85",
	"fig9c":       "31c52e192267b3a8",
	"theorem1":    "947e1a4eaae5191b",
	"overhead":    "09ad6fe47c98152e",
	"reuse":       "889f472083888e14",
	"lambda":      "b52668da685b295d",
	"sensing":     "b5843970a0ff1470",
	"hopping":     "a4659b36390927bb",
	"hybrid":      "ef24d670507b1721",
	"sched":       "ac5408ec7c40cc60",
	"uplink":      "bc0c7d803bc40b9f",
	"aggregation": "4cd0da0b7851c4d8",
	"mobility":    "e2cce299cb028dfc",
}

func resultDigest(res Result) string {
	h := sha256.New()
	for _, tb := range res.Tables {
		h.Write([]byte(tb.String()))
	}
	var b [8]byte
	for _, s := range res.Series {
		h.Write([]byte(s.Name))
		for _, p := range s.Points {
			for _, v := range p {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	for _, n := range res.Notes {
		h.Write([]byte(n))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestGolden(t *testing.T) {
	checkGolden(t, true, goldenQuickSeed1)
}

func TestGoldenFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mode sweep of every experiment")
	}
	checkGolden(t, false, goldenFullSeed1)
}

func checkGolden(t *testing.T, quick bool, golden map[string]string) {
	for _, id := range IDs() {
		if id == "prach" {
			continue
		}
		run, _ := Get(id)
		got := resultDigest(run(1, quick))
		t.Logf("%q: %q,", id, got)
		if want := golden[id]; got != want {
			t.Errorf("%s: digest %s, golden %s", id, got, want)
		}
	}
	if len(golden) != len(IDs())-1 {
		t.Errorf("golden table has %d entries for %d experiments", len(golden), len(IDs())-1)
	}
}
