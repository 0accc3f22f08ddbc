package lte

import (
	"testing"
	"time"

	"cellfi/internal/sim"
)

// connected counts clients in RRCConnected.
func connected(r *RRCSim) int {
	n := 0
	for _, s := range r.states {
		if s == RRCConnected {
			n++
		}
	}
	return n
}

func TestRRCSingleClientAttaches(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewRRCSim(eng)
	var result *AttachResult
	r.OnConnected = func(a AttachResult) { result = &a }
	r.Connect(1)
	eng.Run(time.Second)
	if r.states[1] != RRCConnected {
		t.Fatalf("state = %v, want connected", r.states[1])
	}
	if result == nil || result.Attempts != 1 {
		t.Fatalf("result = %+v, want a 1-attempt attach", result)
	}
	// One occasion (10 ms grid) + RAR + Msg3/4: tens of milliseconds.
	if result.Took > 100*time.Millisecond {
		t.Fatalf("lone attach took %v", result.Took)
	}
}

func TestRRCManyClientsAllAttach(t *testing.T) {
	eng := sim.NewEngine(2)
	r := NewRRCSim(eng)
	done := 0
	totalAttempts := 0
	r.OnConnected = func(a AttachResult) { done++; totalAttempts += a.Attempts }
	const n = 40
	for i := 0; i < n; i++ {
		r.Connect(i)
	}
	eng.Run(5 * time.Second)
	if done != n {
		t.Fatalf("%d of %d clients attached", done, n)
	}
	if connected(r) != n {
		t.Fatalf("connected = %d", connected(r))
	}
	// 40 clients over 54 preambles: collisions are certain, so total
	// attempts must exceed n; but backoff resolves them quickly.
	if totalAttempts <= n {
		t.Fatalf("no contention observed (%d attempts for %d clients)", totalAttempts, n)
	}
}

func TestRRCCollisionBackoffResolves(t *testing.T) {
	// Two clients forced onto a 1-preamble pool collide forever at
	// each shared occasion; randomized backoff must eventually
	// desynchronize them... except with one preamble any shared
	// occasion collides, so they only succeed when their backoffs
	// differ. Verify both still attach.
	eng := sim.NewEngine(3)
	r := NewRRCSim(eng)
	r.Preambles = 1
	r.Connect(1)
	r.Connect(2)
	eng.Run(10 * time.Second)
	if r.states[1] != RRCConnected && r.states[2] != RRCConnected {
		t.Fatal("neither client ever won the single preamble")
	}
}

func TestRRCConnectIdempotentWhenConnected(t *testing.T) {
	eng := sim.NewEngine(6)
	r := NewRRCSim(eng)
	attaches := 0
	r.OnConnected = func(AttachResult) { attaches++ }
	r.Connect(1)
	eng.Run(time.Second)
	r.Connect(1) // no-op
	eng.Run(2 * time.Second)
	if attaches != 1 {
		t.Fatalf("connected client re-attached (%d events)", attaches)
	}
}

func TestRRCDeterministic(t *testing.T) {
	run := func() (int, sim.Time) {
		eng := sim.NewEngine(7)
		r := NewRRCSim(eng)
		var last sim.Time
		n := 0
		r.OnConnected = func(a AttachResult) { n++; last = a.Took }
		for i := 0; i < 20; i++ {
			r.Connect(i)
		}
		eng.Run(3 * time.Second)
		return n, last
	}
	n1, t1 := run()
	n2, t2 := run()
	if n1 != n2 || t1 != t2 {
		t.Fatal("RRC simulation not deterministic")
	}
}

func BenchmarkRRCAttachStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(i))
		r := NewRRCSim(eng)
		for c := 0; c < 50; c++ {
			r.Connect(c)
		}
		eng.Run(3 * time.Second)
	}
}
