package metro

import (
	"bytes"
	"testing"

	"cellfi/internal/trace"
)

// shardCity is smallCity plus the two hazards the sharded path must
// survive: a mobility cohort that walks UEs across slab boundaries, and
// an incumbent pop-up centered exactly on the K=2/K=8 boundary line
// (x = AreaW/2), so its silenced APs straddle two slabs.
func shardCity(seed int64, shards int) Config {
	cfg := smallCity(seed)
	cfg.Shards = shards
	cfg.Incumbents = []IncumbentEvent{
		{Epoch: 6, Duration: 12, X: cfg.AreaW / 2, Y: cfg.AreaH / 2, RadiusM: 450},
		{Epoch: 20, X: cfg.AreaW / 4, Y: cfg.AreaH / 3, RadiusM: 300}, // permanent
	}
	return cfg
}

type shardRunResult struct {
	w       *World
	trace   []byte
	apLoad  []int32
	msgs    int64
	windows int64
}

func runShardCity(t *testing.T, seed int64, shards, epochs int) shardRunResult {
	t.Helper()
	w := New(shardCity(seed, shards))
	defer w.Close()
	var buf bytes.Buffer
	ring := trace.NewRing(256)
	ring.SpillTo(&buf)
	w.SetRecorder(ring)
	w.Run(epochs)
	if err := ring.Flush(); err != nil {
		t.Fatal(err)
	}
	res := shardRunResult{w: w, trace: buf.Bytes(), apLoad: append([]int32(nil), w.apLoad...)}
	if st, ok := w.ShardStats(); ok {
		res.msgs, res.windows = st.Msgs, st.Windows
	}
	return res
}

// TestMetroShardEquivalence is the sharded-execution contract: over 50
// seeds, the inline single-slab run and cluster runs at 2 and 8 shards
// produce byte-identical trace streams, identical per-UE state,
// identical AP load tables, identical delivered-bit totals and
// identical whole-run throughput aggregates (moments and quantiles) —
// with boundary-crossing mobility and a shard-boundary incumbent in
// play.
func TestMetroShardEquivalence(t *testing.T) {
	seeds := int64(50)
	if testing.Short() {
		seeds = 8
	}
	const epochs = 34
	var totalHandoffs int64
	for seed := int64(1); seed <= seeds; seed++ {
		ref := runShardCity(t, seed, 1, epochs)
		if len(ref.trace) == 0 {
			t.Fatal("reference run produced no trace bytes")
		}
		for _, k := range []int{2, 8} {
			got := runShardCity(t, seed, k, epochs)
			if !bytes.Equal(got.trace, ref.trace) {
				t.Fatalf("seed %d K=%d: trace stream (%d bytes) differs from K=1 run (%d bytes)",
					seed, k, len(got.trace), len(ref.trace))
			}
			for u := 0; u < ref.w.Cfg.NUEs; u++ {
				ax, ay, ac, ad, aq := ref.w.UEState(u)
				bx, by, bc, bd, bq := got.w.UEState(u)
				if ax != bx || ay != by || ac != bc || ad != bd || aq != bq {
					t.Fatalf("seed %d K=%d UE %d diverges: K=1 (%v,%v,%d,%d,%d) sharded (%v,%v,%d,%d,%d)",
						seed, k, u, ax, ay, ac, ad, aq, bx, by, bc, bd, bq)
				}
			}
			for a := range ref.apLoad {
				if got.apLoad[a] != ref.apLoad[a] {
					t.Fatalf("seed %d K=%d: AP %d load %d, K=1 %d", seed, k, a, got.apLoad[a], ref.apLoad[a])
				}
			}
			if got.w.DeliveredBits() != ref.w.DeliveredBits() {
				t.Fatalf("seed %d K=%d: delivered %d bits, K=1 %d",
					seed, k, got.w.DeliveredBits(), ref.w.DeliveredBits())
			}
			if got.w.AttachedCount() != ref.w.AttachedCount() {
				t.Fatalf("seed %d K=%d: attached %d, K=1 %d",
					seed, k, got.w.AttachedCount(), ref.w.AttachedCount())
			}
			if a, b := ref.w.Throughput(), got.w.Throughput(); a != b || a.Count == 0 || a.Variance == 0 {
				t.Fatalf("seed %d K=%d: throughput aggregate %+v, K=1 %+v", seed, k, b, a)
			}
			if got.w.attached != ref.w.attached {
				t.Fatalf("seed %d K=%d: attached aggregate %+v, K=1 %+v", seed, k, got.w.attached, ref.w.attached)
			}
			aq, bq := ref.w.ThroughputQ(), got.w.ThroughputQ()
			for _, q := range []float64{0.5, 0.9, 0.99} {
				if aq.Quantile(q) != bq.Quantile(q) {
					t.Fatalf("seed %d K=%d: p%g %v Mbps, K=1 %v", seed, k, 100*q, bq.Quantile(q), aq.Quantile(q))
				}
			}
			if got.windows != int64(epochs)*4 {
				t.Fatalf("seed %d K=%d: ran %d windows, want %d", seed, k, got.windows, epochs*4)
			}
			totalHandoffs += got.msgs
		}
	}
	// The contract is vacuous if no UE ever crossed a slab boundary.
	if totalHandoffs == 0 {
		t.Fatal("no cross-shard handoff messages over any seed — boundary mobility untested")
	}
}

// The incumbent must actually silence APs: mid-outage throughput and
// CQI drop relative to the same world without the pop-up, identically
// at every shard count (already pinned above) and materially (pinned
// here).
func TestMetroIncumbentBitesAndClears(t *testing.T) {
	cfgOn := shardCity(3, 1)
	cfgOn.Incumbents = cfgOn.Incumbents[:1] // the bounded-duration pop-up only
	cfgOff := shardCity(3, 1)
	cfgOff.Incumbents = nil
	on, off := New(cfgOn), New(cfgOff)
	on.Run(10) // epochs 0-9; incumbent 0 active from epoch 6
	off.Run(10)
	if on.DeliveredBits() >= off.DeliveredBits() {
		t.Fatalf("incumbent outage delivered %d bits >= undisturbed %d", on.DeliveredBits(), off.DeliveredBits())
	}
	silenced := 0
	for a := range on.apDownCnt {
		if on.apDownCnt[a] > 0 {
			silenced++
		}
	}
	if silenced == 0 {
		t.Fatal("incumbent arrival silenced no APs")
	}
	// After Epoch+Duration the first incumbent departs again.
	on.Run(10) // through epoch 19; departure at epoch 18
	for a := range on.apDownCnt {
		if on.apDownCnt[a] != 0 {
			t.Fatalf("AP %d still silenced after incumbent departure", a)
		}
	}
}

// Slab ownership is one byte per UE, so 256 shards is the most New can
// honour: 257 must be refused (it used to wrap and silently diverge),
// and 256 must still match the single-slab run.
func TestMetroShardCountLimit(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New accepted Shards: 257")
			}
		}()
		New(shardCity(1, 257)).Close()
	}()

	const epochs = 8
	ref := runShardCity(t, 1, 1, epochs)
	got := runShardCity(t, 1, 256, epochs)
	if !bytes.Equal(got.trace, ref.trace) || got.w.DeliveredBits() != ref.w.DeliveredBits() {
		t.Fatalf("K=256 diverges from the K=1 run: delivered %d bits vs %d",
			got.w.DeliveredBits(), ref.w.DeliveredBits())
	}
}
