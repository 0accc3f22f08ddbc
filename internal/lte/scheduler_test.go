package lte

import (
	"testing"
	"testing/quick"
)

func allSubchannels(bw Bandwidth) []int {
	out := make([]int, bw.Subchannels())
	for i := range out {
		out[i] = i
	}
	return out
}

func uniformCQI(bw Bandwidth, cqi int) []int {
	out := make([]int, bw.Subchannels())
	for i := range out {
		out[i] = cqi
	}
	return out
}

// allocMap renders a scratch allocation in the historical
// subchannel -> UE id form for test assertions.
func allocMap(s *AllocScratch, ues []*SchedUE) map[int]int {
	m := map[int]int{}
	for sc, ui := range s.UEOf {
		if ui >= 0 {
			m[sc] = ues[ui].ID
		}
	}
	return m
}

// servedMap renders per-UE served bits keyed by UE id.
func servedMap(s *AllocScratch, ues []*SchedUE) map[int]int64 {
	m := map[int]int64{}
	for i, b := range s.Served {
		if b != 0 {
			m[ues[i].ID] = b
		}
	}
	return m
}

func TestRoundRobinSharesEvenly(t *testing.T) {
	sched := &RoundRobin{}
	ues := []*SchedUE{
		{ID: 1, BacklogBits: 1 << 40, SubbandCQI: uniformCQI(BW5MHz, 10)},
		{ID: 2, BacklogBits: 1 << 40, SubbandCQI: uniformCQI(BW5MHz, 10)},
	}
	var scratch AllocScratch
	served := map[int]int64{}
	for sf := 0; sf < 100; sf++ {
		sched.Allocate(&scratch, BW5MHz, allSubchannels(BW5MHz), ues)
		for id, bits := range servedMap(&scratch, ues) {
			served[id] += bits
		}
	}
	if served[1] == 0 || served[2] == 0 {
		t.Fatal("a client starved under round robin")
	}
	ratio := float64(served[1]) / float64(served[2])
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("round robin imbalance: %d vs %d", served[1], served[2])
	}
}

func TestSchedulerRespectsAllowedSet(t *testing.T) {
	for _, sched := range []Scheduler{&RoundRobin{}, &ProportionalFair{}} {
		ues := []*SchedUE{{ID: 1, BacklogBits: 1 << 40, SubbandCQI: uniformCQI(BW5MHz, 10)}}
		allowed := []int{2, 5, 11}
		var scratch AllocScratch
		sched.Allocate(&scratch, BW5MHz, allowed, ues)
		alloc := allocMap(&scratch, ues)
		for sc := range alloc {
			ok := false
			for _, a := range allowed {
				if sc == a {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("%T scheduled outside allowed set: subchannel %d", sched, sc)
			}
		}
		if len(alloc) != len(allowed) {
			t.Fatalf("%T used %d of %d allowed subchannels for a backlogged client",
				sched, len(alloc), len(allowed))
		}
	}
}

func TestSchedulerDrainsBacklog(t *testing.T) {
	for _, sched := range []Scheduler{&RoundRobin{}, &ProportionalFair{}} {
		u := &SchedUE{ID: 1, BacklogBits: 3000, SubbandCQI: uniformCQI(BW5MHz, 15)}
		var scratch AllocScratch
		total := int64(0)
		for sf := 0; sf < 20 && u.BacklogBits > 0; sf++ {
			sched.Allocate(&scratch, BW5MHz, allSubchannels(BW5MHz), []*SchedUE{u})
			total += scratch.Served[0]
		}
		if u.BacklogBits != 0 {
			t.Fatalf("%T left %d bits queued", sched, u.BacklogBits)
		}
		if total != 3000 {
			t.Fatalf("%T served %d bits, want exactly the 3000 queued", sched, total)
		}
	}
}

func TestSchedulerSkipsIdleAndZeroCQI(t *testing.T) {
	for _, sched := range []Scheduler{&RoundRobin{}, &ProportionalFair{}} {
		ues := []*SchedUE{
			{ID: 1, BacklogBits: 0, SubbandCQI: uniformCQI(BW5MHz, 10)},      // idle
			{ID: 2, BacklogBits: 1 << 20, SubbandCQI: uniformCQI(BW5MHz, 0)}, // out of range
		}
		var scratch AllocScratch
		sched.Allocate(&scratch, BW5MHz, allSubchannels(BW5MHz), ues)
		granted := false
		for _, u := range scratch.UEOf {
			granted = granted || u >= 0
		}
		if granted || len(servedMap(&scratch, ues)) != 0 {
			t.Fatalf("%T scheduled idle or undecodable clients: %v",
				sched, servedMap(&scratch, ues))
		}
	}
}

func TestProportionalFairPrefersGoodSubbands(t *testing.T) {
	// UE 1 is strong on low subchannels, UE 2 on high ones: PF should
	// give each its good half, beating round-robin's blind split.
	mkCQI := func(lowGood bool) []int {
		out := make([]int, BW5MHz.Subchannels())
		for i := range out {
			if (i < 7) == lowGood {
				out[i] = 12
			} else {
				out[i] = 2
			}
		}
		return out
	}
	pf := &ProportionalFair{}
	ues := []*SchedUE{
		{ID: 1, BacklogBits: 1 << 40, SubbandCQI: mkCQI(true)},
		{ID: 2, BacklogBits: 1 << 40, SubbandCQI: mkCQI(false)},
	}
	var scratch AllocScratch
	goodPlacements, total := 0, 0
	for sf := 0; sf < 200; sf++ {
		pf.Allocate(&scratch, BW5MHz, allSubchannels(BW5MHz), ues)
		for sc, id := range allocMap(&scratch, ues) {
			total++
			if (sc < 7 && id == 1) || (sc >= 7 && id == 2) {
				goodPlacements++
			}
		}
	}
	frac := float64(goodPlacements) / float64(total)
	if frac < 0.9 {
		t.Fatalf("PF placed only %.0f%% of grants on good subbands", frac*100)
	}
}

func TestProportionalFairLongRunFairness(t *testing.T) {
	// Symmetric clients must converge to equal shares.
	pf := &ProportionalFair{}
	ues := []*SchedUE{
		{ID: 1, BacklogBits: 1 << 50, SubbandCQI: uniformCQI(BW5MHz, 10)},
		{ID: 2, BacklogBits: 1 << 50, SubbandCQI: uniformCQI(BW5MHz, 10)},
		{ID: 3, BacklogBits: 1 << 50, SubbandCQI: uniformCQI(BW5MHz, 10)},
	}
	var scratch AllocScratch
	served := map[int]int64{}
	for sf := 0; sf < 3000; sf++ {
		pf.Allocate(&scratch, BW5MHz, allSubchannels(BW5MHz), ues)
		for id, b := range servedMap(&scratch, ues) {
			served[id] += b
		}
	}
	var min, max int64 = 1 << 62, 0
	for _, b := range served {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if float64(min)/float64(max) < 0.9 {
		t.Fatalf("PF long-run unfairness: min %d max %d", min, max)
	}
}

// Property: no scheduler ever serves more bits than the transport
// blocks of its allocated subchannels allow, and never goes negative.
func TestQuickSchedulerConservation(t *testing.T) {
	f := func(backlogs []uint16, cqiSeed uint8) bool {
		if len(backlogs) == 0 {
			return true
		}
		if len(backlogs) > 8 {
			backlogs = backlogs[:8]
		}
		mk := func() []*SchedUE {
			ues := make([]*SchedUE, len(backlogs))
			for i, b := range backlogs {
				cqi := 1 + (int(cqiSeed)+i)%15
				ues[i] = &SchedUE{ID: i, BacklogBits: int64(b), SubbandCQI: uniformCQI(BW5MHz, cqi)}
			}
			return ues
		}
		for _, sched := range []Scheduler{&RoundRobin{}, &ProportionalFair{}} {
			ues := mk()
			var want int64
			for _, u := range ues {
				want += u.BacklogBits
			}
			var scratch AllocScratch
			sched.Allocate(&scratch, BW5MHz, allSubchannels(BW5MHz), ues)
			var got, left int64
			for _, b := range scratch.Served {
				if b < 0 {
					return false
				}
				got += b
			}
			for _, u := range ues {
				if u.BacklogBits < 0 {
					return false
				}
				left += u.BacklogBits
			}
			if got+left != want {
				return false
			}
			// Per-UE capacity bound: a UE's served bits cannot
			// exceed the top-CQI transport blocks of exactly the
			// subchannels allocated to it.
			bound := map[int]int64{}
			for sc, id := range allocMap(&scratch, ues) {
				bound[id] += int64(TransportBlockBits(15, BW5MHz.SubchannelRBs(sc)))
			}
			for id, bits := range servedMap(&scratch, ues) {
				if bits > bound[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The steady-state scheduling path must be allocation-free: the
// scratch grows on the first call and is pure reuse afterwards.
func TestSchedulerAllocateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched Scheduler
	}{
		{"RoundRobin", &RoundRobin{}},
		{"ProportionalFair", &ProportionalFair{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ues := make([]*SchedUE, 8)
			for i := range ues {
				ues[i] = &SchedUE{ID: i, SubbandCQI: uniformCQI(BW5MHz, 1+(i*3)%15)}
			}
			allowed := allSubchannels(BW5MHz)
			var scratch AllocScratch
			run := func() {
				for _, u := range ues {
					u.BacklogBits = 1 << 30
				}
				tc.sched.Allocate(&scratch, BW5MHz, allowed, ues)
			}
			run() // warm up: grow the scratch once
			if avg := testing.AllocsPerRun(200, run); avg != 0 {
				t.Fatalf("%s.Allocate allocates %.1f times per subframe in steady state", tc.name, avg)
			}
		})
	}
}

// AppendGrants shares the scratch's working buffers, so the grant path
// is allocation-free too once dst has grown.
func TestAppendGrantsZeroAllocs(t *testing.T) {
	ues := make([]*SchedUE, 8)
	for i := range ues {
		ues[i] = &SchedUE{ID: i, SubbandCQI: uniformCQI(BW5MHz, 1+(i*3)%15)}
	}
	allowed := allSubchannels(BW5MHz)
	pf := &ProportionalFair{}
	var scratch AllocScratch
	var dcis []DCI
	run := func() {
		for _, u := range ues {
			u.BacklogBits = 1 << 30
		}
		pf.Allocate(&scratch, BW5MHz, allowed, ues)
		dcis = AppendGrants(dcis[:0], BW5MHz, &scratch, ues)
	}
	run()
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Fatalf("Allocate+AppendGrants allocates %.1f times per subframe", avg)
	}
	if len(dcis) == 0 {
		t.Fatal("no grants produced for backlogged clients")
	}
}

func BenchmarkProportionalFairSubframe(b *testing.B) {
	pf := &ProportionalFair{}
	ues := make([]*SchedUE, 6)
	for i := range ues {
		ues[i] = &SchedUE{ID: i, BacklogBits: 1 << 40, SubbandCQI: uniformCQI(BW5MHz, 1+i*2)}
	}
	allowed := allSubchannels(BW5MHz)
	var scratch AllocScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf.Allocate(&scratch, BW5MHz, allowed, ues)
	}
}
