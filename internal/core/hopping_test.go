package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newCtl(seed int64) *Controller {
	return NewController(13, rand.New(rand.NewSource(seed)))
}

func TestControllerAcquiresShare(t *testing.T) {
	c := newCtl(1)
	held := c.Epoch(EpochInput{TargetShare: 5})
	if len(held) != 5 {
		t.Fatalf("held %d subchannels, want 5", len(held))
	}
	for _, k := range held {
		if k < 0 || k >= 13 {
			t.Fatalf("invalid subchannel %d", k)
		}
	}
	// Idempotent at steady state.
	again := c.Epoch(EpochInput{TargetShare: 5})
	if len(again) != 5 {
		t.Fatalf("steady state drifted to %d", len(again))
	}
	if c.Hops != 0 {
		t.Fatalf("counted %d hops during clean acquisition", c.Hops)
	}
}

func TestControllerShrinksShare(t *testing.T) {
	c := newCtl(2)
	c.Epoch(EpochInput{TargetShare: 10})
	held := c.Epoch(EpochInput{TargetShare: 3})
	if len(held) != 3 {
		t.Fatalf("held %d after shrink, want 3", len(held))
	}
}

func TestControllerReleasesLowestUtility(t *testing.T) {
	c := newCtl(3)
	c.Epoch(EpochInput{TargetShare: 3, Utility: map[int]float64{}})
	held := c.Held()
	util := map[int]float64{held[0]: 5, held[1]: 1, held[2]: 9}
	after := c.Epoch(EpochInput{TargetShare: 2, Utility: util})
	for _, k := range after {
		if k == held[1] {
			t.Fatalf("kept the lowest-utility subchannel %d", held[1])
		}
	}
}

func TestControllerAvoidsSensedBusy(t *testing.T) {
	c := newCtl(4)
	busy := map[int]bool{}
	for k := 0; k < 13; k++ {
		if k != 7 {
			busy[k] = true
		}
	}
	held := c.Epoch(EpochInput{TargetShare: 3, SensedBusy: busy})
	if len(held) != 1 || held[0] != 7 {
		t.Fatalf("held %v, want just the only free subchannel 7", held)
	}
	// Nothing free at all: hold what we have, retry later.
	busy[7] = true
	held = c.Epoch(EpochInput{TargetShare: 3, SensedBusy: busy})
	if len(held) != 1 {
		t.Fatalf("held %v with a fully busy channel", held)
	}
}

func TestBucketDecrementAndHop(t *testing.T) {
	c := newCtl(5)
	c.Epoch(EpochInput{TargetShare: 1})
	orig := c.Held()[0]
	// Hammer the held subchannel with full-time bad reports; the
	// exponential bucket (mean 10) must drain and force a hop.
	hops := 0
	for i := 0; i < 200; i++ {
		held := c.Epoch(EpochInput{
			TargetShare: 1,
			BadFrac:     map[int]float64{c.Held()[0]: 1.0},
		})
		if len(held) != 1 {
			t.Fatalf("share lost during hopping: %v", held)
		}
		if held[0] != orig {
			hops++
			orig = held[0]
		}
	}
	if hops < 3 {
		t.Fatalf("only %d hops under constant interference; buckets not draining", hops)
	}
	// The counter can exceed observed changes: a random replacement may
	// land back on the subchannel just vacated.
	if c.Hops < hops {
		t.Fatalf("hop counter %d below observed %d", c.Hops, hops)
	}
}

// The bucket update rule guarantees a newcomer can win a subchannel no
// matter how long the incumbent held it: the bucket only ever drains.
func TestBucketNeverRefillsWhileHeld(t *testing.T) {
	c := newCtl(6)
	c.Epoch(EpochInput{TargetShare: 1})
	k := c.Held()[0]
	// Partial-time interference (frac 0.25): expected drain time is
	// bucket/0.25 epochs, i.e. bounded; it must eventually hop.
	hopped := false
	for i := 0; i < 400; i++ {
		held := c.Epoch(EpochInput{TargetShare: 1, BadFrac: map[int]float64{k: 0.25}})
		if held[0] != k {
			hopped = true
			break
		}
	}
	if !hopped {
		t.Fatal("incumbent never yielded under sustained fractional interference")
	}
}

func TestHopPrefersUtility(t *testing.T) {
	// When hopping off a bad subchannel, the controller takes the
	// maximum-utility replacement (Section 5.3's hopping procedure).
	wins := 0
	for seed := int64(0); seed < 20; seed++ {
		c := newCtl(100 + seed)
		c.Epoch(EpochInput{TargetShare: 1})
		k := c.Held()[0]
		util := map[int]float64{}
		best := (k + 5) % 13
		for i := 0; i < 13; i++ {
			if i != k {
				util[i] = 1
			}
		}
		util[best] = 10
		for i := 0; i < 300 && c.Held()[0] == k; i++ {
			c.Epoch(EpochInput{TargetShare: 1, BadFrac: map[int]float64{k: 1}, Utility: util})
		}
		if c.Held()[0] == best {
			wins++
		}
	}
	if wins < 18 {
		t.Fatalf("hopped to max-utility subchannel only %d/20 times", wins)
	}
}

func TestPackingMovesToLowerIndex(t *testing.T) {
	c := newCtl(7)
	c.Epoch(EpochInput{TargetShare: 1, SensedBusy: map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true, 8: true, 9: true, 10: true, 11: true}})
	if c.Held()[0] != 12 {
		t.Fatalf("setup failed: held %v", c.Held())
	}
	held := c.Epoch(EpochInput{TargetShare: 1, PackCandidate: map[int]int{12: 2}})
	if held[0] != 2 {
		t.Fatalf("packing did not move 12 -> 2: %v", held)
	}
	if c.Hops != 1 {
		t.Fatalf("packing should count as a hop (got %d)", c.Hops)
	}
}

func TestPackingRespectsConstraints(t *testing.T) {
	c := newCtl(8)
	c.Epoch(EpochInput{TargetShare: 2})
	held := c.Held()
	lo, hi := held[0], held[1]
	// Refuse upward moves, moves onto held subchannels, and moves
	// onto sensed-busy targets.
	after := c.Epoch(EpochInput{TargetShare: 2, PackCandidate: map[int]int{lo: hi}})
	if after[0] != lo || after[1] != hi {
		t.Fatalf("upward/held pack accepted: %v -> %v", held, after)
	}
	target := 0
	if lo == 0 {
		target = lo // self-move, also refused via to >= from
	}
	after = c.Epoch(EpochInput{TargetShare: 2,
		PackCandidate: map[int]int{hi: target},
		SensedBusy:    map[int]bool{target: true}})
	for _, k := range after {
		if k == target && target != lo {
			t.Fatalf("packed onto sensed-busy subchannel: %v", after)
		}
	}
}

func TestPackingDisabled(t *testing.T) {
	c := newCtl(9)
	c.PackingEnabled = false
	c.Epoch(EpochInput{TargetShare: 1, SensedBusy: map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true, 8: true, 9: true, 10: true, 11: true}})
	held := c.Epoch(EpochInput{TargetShare: 1, PackCandidate: map[int]int{12: 0}})
	if held[0] != 12 {
		t.Fatalf("packing ran while disabled: %v", held)
	}
}

func TestControllerTargetClamping(t *testing.T) {
	c := newCtl(10)
	if held := c.Epoch(EpochInput{TargetShare: 99}); len(held) != 13 {
		t.Fatalf("over-target held %d, want all 13", len(held))
	}
	if held := c.Epoch(EpochInput{TargetShare: -1}); len(held) != 0 {
		t.Fatalf("negative target held %d, want 0", len(held))
	}
}

// Property: the held set never contains duplicates, never exceeds the
// target or the channel, and never includes a sensed-busy subchannel
// that was not already held.
func TestQuickControllerInvariants(t *testing.T) {
	f := func(seed int64, targets []uint8, busyMask uint16) bool {
		c := NewController(13, rand.New(rand.NewSource(seed)))
		if len(targets) > 30 {
			targets = targets[:30]
		}
		prev := map[int]bool{}
		for _, tr := range targets {
			target := int(tr) % 15
			busy := map[int]bool{}
			for k := 0; k < 13; k++ {
				if busyMask&(1<<k) != 0 {
					busy[k] = true
				}
			}
			bad := map[int]float64{}
			for _, k := range c.Held() {
				if k%3 == 0 {
					bad[k] = 0.5
				}
			}
			held := c.Epoch(EpochInput{TargetShare: target, SensedBusy: busy, BadFrac: bad})
			seen := map[int]bool{}
			for _, k := range held {
				if k < 0 || k >= 13 || seen[k] {
					return false
				}
				seen[k] = true
				if busy[k] && !prev[k] {
					return false // acquired a busy subchannel
				}
			}
			want := target
			if want > 13 {
				want = 13
			}
			if len(held) > want {
				return false
			}
			prev = seen
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Two controllers with complementary sensing should converge to
// disjoint sets when each marks the other's holdings busy — the
// one-dimensional essence of distributed subchannel selection.
func TestTwoControllersConvergeDisjoint(t *testing.T) {
	a := newCtl(11)
	b := newCtl(12)
	toBusy := func(held []int) map[int]bool {
		m := map[int]bool{}
		for _, k := range held {
			m[k] = true
		}
		return m
	}
	var ha, hb []int
	for i := 0; i < 50; i++ {
		ha = a.Epoch(EpochInput{TargetShare: 6, SensedBusy: toBusy(hb)})
		hb = b.Epoch(EpochInput{TargetShare: 6, SensedBusy: toBusy(ha), BadFrac: overlapBad(hb, ha)})
	}
	overlap := 0
	inA := map[int]bool{}
	for _, k := range ha {
		inA[k] = true
	}
	for _, k := range hb {
		if inA[k] {
			overlap++
		}
	}
	if overlap != 0 {
		t.Fatalf("controllers still overlap on %d subchannels: %v vs %v", overlap, ha, hb)
	}
	if len(ha) != 6 || len(hb) != 6 {
		t.Fatalf("shares not met: %d and %d", len(ha), len(hb))
	}
}

// overlapBad marks b-held subchannels that a also holds as fully bad.
func overlapBad(mine, theirs []int) map[int]float64 {
	inTheirs := map[int]bool{}
	for _, k := range theirs {
		inTheirs[k] = true
	}
	out := map[int]float64{}
	for _, k := range mine {
		if inTheirs[k] {
			out[k] = 1
		}
	}
	return out
}

func TestBucketDistribution(t *testing.T) {
	// Fresh buckets are exponential with mean Lambda: sample via
	// repeated acquisition.
	c := newCtl(13)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		c.buckets = map[int]float64{}
		c.Epoch(EpochInput{TargetShare: 1})
		for _, v := range c.buckets {
			sum += v
		}
	}
	mean := sum / n
	if math.Abs(mean-DefaultLambda) > 1 {
		t.Fatalf("bucket mean = %g, want about %g", mean, DefaultLambda)
	}
}

// BenchmarkControllerEpoch is one steady-state update at the paper's 13
// subchannels: a held share of 4, two subchannels sensed busy, one held
// subchannel reported bad every epoch (so buckets drain and hop).
func BenchmarkControllerEpoch(b *testing.B) {
	const s = 13
	ctl := NewController(s, rand.New(rand.NewSource(1)))
	in := EpochInput{TargetShare: 4, BadFrac: map[int]float64{},
		Utility: map[int]float64{}, SensedBusy: map[int]bool{2: true, 7: true}, PackCandidate: map[int]int{}}
	for k := 0; k < s; k++ {
		in.Utility[k] = float64(1 + k%5)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(in.BadFrac)
		if held := ctl.Epoch(in); len(held) > 0 {
			in.BadFrac[held[0]] = 0.5
		}
	}
}
