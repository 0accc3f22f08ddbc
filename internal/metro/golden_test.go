package metro

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"cellfi/internal/trace"
)

// goldenShardCity pins 60 epochs of shardCity per (seed, incumbents on
// or off): an 8-byte SHA-256 prefix over the trace bytes, Epoch /
// AttachedCount / DeliveredBits, every UE's UEState, Throughput()'s
// five fields and ThroughputQ() at q ∈ {0, 0.05, 0.5, 0.95, 1} plus its
// Count(), floats as their bit patterns. Each entry must come out at
// K = 1 and at K = 2. TestMetroShardEquivalence compares one shard
// count against another in the same binary; this table compares today
// against yesterday, aggregates included.
//
// Re-roll: a change that means to move a city result runs
//
//	go test -run TestMetroGolden -v ./internal/metro
//
// pastes the printed `"key": "digest",` lines over the table below, and
// says in CHANGES.md what moved and why. A digest that moves without
// such a reason is a regression.
var goldenShardCity = map[string]string{
	"seed1/inc":   "828412ea71759c25",
	"seed1/noinc": "67735b831ba4609e",
	"seed2/inc":   "8e770f32938ee3f3",
	"seed2/noinc": "0db5bcd360fe0d4e",
}

func metroDigest(t *testing.T, cfg Config, epochs int) string {
	t.Helper()
	w := New(cfg)
	defer w.Close()
	var buf bytes.Buffer
	ring := trace.NewRing(256)
	ring.SpillTo(&buf)
	w.SetRecorder(ring)
	w.Run(epochs)
	if err := ring.Flush(); err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	h.Write(buf.Bytes())
	var b [8]byte
	putInt := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	putFloat := func(v float64) { putInt(int64(math.Float64bits(v))) }
	putInt(w.Epoch())
	putInt(int64(w.AttachedCount()))
	putInt(w.DeliveredBits())
	for u := 0; u < cfg.NUEs; u++ {
		x, y, cell, delivered, cqi := w.UEState(u)
		putFloat(x)
		putFloat(y)
		putInt(int64(cell))
		putInt(delivered)
		putInt(int64(cqi))
	}
	thr := w.Throughput()
	putInt(thr.Count)
	putFloat(thr.Mean)
	putFloat(thr.Variance)
	putFloat(thr.Min)
	putFloat(thr.Max)
	q := w.ThroughputQ()
	for _, p := range []float64{0, 0.05, 0.5, 0.95, 1} {
		putFloat(q.Quantile(p))
	}
	putInt(q.Count())
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestMetroGolden(t *testing.T) {
	const epochs = 60
	for _, seed := range []int64{1, 2} {
		for _, inc := range []bool{true, false} {
			key := fmt.Sprintf("seed%d/noinc", seed)
			if inc {
				key = fmt.Sprintf("seed%d/inc", seed)
			}
			for _, k := range []int{1, 2} {
				cfg := shardCity(seed, k)
				if !inc {
					cfg.Incumbents = nil
				}
				got := metroDigest(t, cfg, epochs)
				if k == 1 {
					t.Logf("%q: %q,", key, got)
				}
				if want := goldenShardCity[key]; got != want {
					t.Errorf("%s K=%d: digest %s, golden %s", key, k, got, want)
				}
			}
		}
	}
}
