package pawsdb

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestLeaseAcquireRenewExpire(t *testing.T) {
	var met Metrics
	s := newLeaseStore(&met)
	now := t0
	cell := CellKey{1, 1}

	if renewed := s.Acquire("AP-1", "FIXED", cell, now.Add(30*time.Second), now); renewed {
		t.Fatal("first acquire reported as renewal")
	}
	if n := s.Active(now); n != 1 {
		t.Fatalf("active = %d, want 1", n)
	}
	// Renewal fast path before expiry.
	now = now.Add(20 * time.Second)
	if renewed := s.Acquire("AP-1", "FIXED", cell, now.Add(30*time.Second), now); !renewed {
		t.Fatal("in-lease acquire should renew")
	}
	// The renewal extended the TTL past the original expiry.
	now = now.Add(25 * time.Second) // t0+45s: original until (t0+30) passed
	if n := s.Active(now); n != 1 {
		t.Fatalf("renewed lease dropped early: active = %d", n)
	}
	// Let it lapse; a fresh acquire is a grant, not a renewal.
	now = now.Add(10 * time.Second)
	if n := s.Active(now); n != 0 {
		t.Fatalf("lease not evicted after expiry: active = %d", n)
	}
	if renewed := s.Acquire("AP-1", "FIXED", cell, now.Add(30*time.Second), now); renewed {
		t.Fatal("acquire after expiry should be a fresh grant")
	}
	if g, r, e := met.LeasesGranted.Load(), met.LeasesRenewed.Load(), met.LeasesExpired.Load(); g != 2 || r != 1 || e < 1 {
		t.Fatalf("churn counters granted=%d renewed=%d expired=%d, want 2/1/>=1", g, r, e)
	}
}

func TestLeaseVirtualTimeJump(t *testing.T) {
	s := newLeaseStore(nil)
	now := t0
	for i := 0; i < 1000; i++ {
		s.Acquire(fmt.Sprintf("AP-%d", i), "FIXED", CellKey{}, now.Add(time.Duration(1+i)*time.Second), now)
	}
	if n := s.Active(now); n != 1000 {
		t.Fatalf("active = %d, want 1000", n)
	}
	// A simulation jumping hours forward must evict everything in one
	// bounded sweep, not iterate hour/slot-width empty slots.
	now = now.Add(12 * time.Hour)
	if n := s.Active(now); n != 0 {
		t.Fatalf("active after 12h jump = %d, want 0", n)
	}
}

func TestLeaseFarFutureExpiry(t *testing.T) {
	s := newLeaseStore(nil)
	now := t0
	// Until far beyond the wheel horizon (512 s): must survive
	// repeated sweeps via re-bucketing until it really expires.
	s.Acquire("AP-far", "FIXED", CellKey{}, now.Add(2*time.Hour), now)
	for step := 0; step < 24; step++ {
		now = now.Add(5 * time.Minute)
		want := 1
		if !t0.Add(2 * time.Hour).After(now) {
			want = 0
		}
		if n := s.Active(now); n != want {
			t.Fatalf("step %d (+%v): active = %d, want %d", step, now.Sub(t0), n, want)
		}
	}
}

func TestLeaseRelease(t *testing.T) {
	s := newLeaseStore(nil)
	now := t0
	s.Acquire("AP-9", "FIXED", CellKey{}, now.Add(time.Hour), now)
	if !s.Release("AP-9", now) {
		t.Fatal("release of live lease returned false")
	}
	if s.Release("AP-9", now) {
		t.Fatal("double release returned true")
	}
	if n := s.Active(now); n != 0 {
		t.Fatalf("active after release = %d", n)
	}
}

func TestLeaseConcurrent(t *testing.T) {
	s := newLeaseStore(nil)
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			now := t0
			for i := 0; i < per; i++ {
				serial := fmt.Sprintf("AP-%d-%d", w, i%50)
				now = now.Add(137 * time.Millisecond)
				s.Acquire(serial, "FIXED", CellKey{int32(w), int32(i)}, now.Add(20*time.Second), now)
			}
		}(w)
	}
	wg.Wait()
	if n := s.Active(t0.Add(per * 137 * time.Millisecond)); n == 0 {
		t.Fatal("no leases survived the concurrent churn")
	}
}

// TestLeaseReleaseThenReacquire: a released lease's wheel reference
// must not evict the lease a later Acquire grants under the same
// serial, and a release is not an expiry. This is the path of a
// cessation notify followed by a restart.
func TestLeaseReleaseThenReacquire(t *testing.T) {
	var met Metrics
	s := newLeaseStore(&met)
	s.Acquire("AP-1", "FIXED", CellKey{}, t0.Add(30*time.Second), t0)
	if !s.Release("AP-1", t0.Add(5*time.Second)) {
		t.Fatal("release of live lease returned false")
	}
	if s.Acquire("AP-1", "FIXED", CellKey{}, t0.Add(40*time.Second), t0.Add(10*time.Second)) {
		t.Fatal("acquire after release reported as renewal")
	}
	if n := s.Active(t0.Add(35 * time.Second)); n != 1 {
		t.Fatalf("active at t0+35s = %d, want 1 (re-acquired lease runs to t0+40s)", n)
	}
	if e := met.LeasesExpired.Load(); e != 0 {
		t.Fatalf("expired = %d at t0+35s, want 0", e)
	}
	if n := s.Active(t0.Add(41 * time.Second)); n != 0 {
		t.Fatalf("active at t0+41s = %d, want 0", n)
	}
	if e := met.LeasesExpired.Load(); e != 1 {
		t.Fatalf("expired = %d at t0+41s, want 1", e)
	}
}

// wheelRefs counts the wheel references a shard holds, live and stale.
func wheelRefs(sh *leaseShard) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := 0
	for _, slot := range sh.wheel {
		n += len(slot)
	}
	return n
}

// TestLeaseRenewalKeepsOneRef: renewing a 12 h lease over and over
// leaves its one wheel reference in place instead of stacking a new one
// per renewal at the wheel horizon.
func TestLeaseRenewalKeepsOneRef(t *testing.T) {
	s := newLeaseStore(nil)
	now := t0
	for i := 0; i < 10000; i++ {
		now = now.Add(100 * time.Microsecond)
		s.Acquire("AP-1", "FIXED", CellKey{}, now.Add(12*time.Hour), now)
	}
	if n := wheelRefs(s.shard("AP-1")); n > 2 {
		t.Fatalf("10000 renewals within one second left %d wheel references, want at most 2", n)
	}
	if n := s.Active(now); n != 1 {
		t.Fatalf("active = %d, want 1", n)
	}
}

// FuzzLeaseStore drives random grants and renewals (expiries extended
// and shrunk, some already past), releases and forward clock jumps (some
// past the 512 s wheel) against a brute map of serial → until. Active
// and Acquire's renewed flag must match the map at every step; a
// renewal that extends a lease must add no wheel reference; and once
// the clock passes every expiry, each grant has ended as exactly one
// expiry or release.
func FuzzLeaseStore(f *testing.F) {
	f.Add([]byte{0, 1, 200, 0, 1, 250, 1, 1, 0, 2, 3, 0, 0, 1, 10})
	f.Add([]byte{0, 0, 255, 3, 7, 0, 0, 0, 5, 2, 255, 0, 0, 0, 255, 1, 0, 0})
	f.Add([]byte{0, 2, 30, 1, 2, 0, 2, 5, 0, 0, 2, 40, 2, 25, 0, 2, 10, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var met Metrics
		s := newLeaseStore(&met)
		brute := map[string]time.Time{}
		now := t0
		released := int64(0)
		for len(ops) >= 3 {
			op, a, b := ops[0]%4, ops[1], ops[2]
			ops = ops[3:]
			serial := fmt.Sprintf("AP-%d", a%8)
			switch op {
			case 0, 1:
				// Acquire until now-16s..now+238s (op 0) or
				// now-1024s..now+4.2h (op 1); b = 255 means 12 h out.
				until := now.Add(time.Duration(int(b)-16) * time.Second * time.Duration(1+63*int(op)))
				if b == 255 {
					until = now.Add(12 * time.Hour)
				}
				sh := s.shard(serial)
				sh.mu.Lock()
				s.advance(sh, now)
				sh.mu.Unlock()
				before := wheelRefs(sh)
				old, had := brute[serial]
				want := had && old.After(now)
				if got := s.Acquire(serial, "FIXED", CellKey{}, until, now); got != want {
					t.Fatalf("%s: renewed = %v, want %v", serial, got, want)
				}
				if after := wheelRefs(sh); want && !until.Before(old) && after > before {
					t.Fatalf("%s: extending renewal grew the wheel from %d to %d references", serial, before, after)
				}
				brute[serial] = until
			case 2:
				_, had := brute[serial] // expired entries are gone from brute
				if got := s.Release(serial, now); got != had {
					t.Fatalf("%s: release = %v, want %v", serial, got, had)
				}
				if had {
					released++
				}
				delete(brute, serial)
			case 3: // clock jump of up to ~17 min
				now = now.Add(time.Duration(a)*4*time.Second + time.Duration(b)*time.Millisecond)
			}
			want := 0
			for serial, until := range brute {
				if until.After(now) {
					want++
				} else {
					delete(brute, serial)
				}
			}
			if got := s.Active(now); got != want {
				t.Fatalf("active at +%v = %d, want %d", now.Sub(t0), got, want)
			}
		}
		s.Active(now.Add(13 * time.Hour))
		if g, e := met.LeasesGranted.Load(), met.LeasesExpired.Load(); g != e+released {
			t.Fatalf("granted %d != expired %d + released %d", g, e, released)
		}
	})
}
