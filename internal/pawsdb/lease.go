package pawsdb

import (
	"sync"
	"time"
)

// Lease-store geometry. 64 shards keep concurrent grants from
// serializing; each shard owns a 512-slot timing wheel with 1-second
// slots, so eviction work per operation is O(slots touched since the
// shard's last advance), capped at one full wheel sweep even when a
// simulation jumps virtual time by hours.
const (
	leaseShards    = 64
	wheelSlots     = 512
	wheelSlotWidth = time.Second
)

// lease is one device's outstanding availability grant.
type lease struct {
	serial string
	class  string
	cell   CellKey
	until  time.Time
	// slot is the absolute wheel slot of the lease's one live
	// reference. A renewal that keeps the expiry at or past that slot
	// leaves the reference where it is: the sweep re-buckets any
	// reference whose lease has not expired yet.
	slot int64
	// gen invalidates stale wheel references: a renewal that pulls the
	// expiry before slot bumps it and re-inserts, and the sweep drops
	// references whose gen no longer matches (lazy deletion — no wheel
	// search on the renewal path).
	gen uint32
}

type wheelRef struct {
	l   *lease
	gen uint32
}

type leaseShard struct {
	mu       sync.Mutex
	m        map[string]*lease
	wheel    [wheelSlots][]wheelRef
	lastSlot int64 // absolute slot index the wheel has advanced to; 0 = uninitialized
}

// LeaseStore tracks per-device spectrum grants with TTL eviction. It
// is driven entirely by the clock values callers pass in (the PAWS
// server's injectable Now), so simulations in virtual time evict
// exactly as a wall-clock deployment would — no background goroutine.
type LeaseStore struct {
	shards [leaseShards]leaseShard
	met    *Metrics
}

func newLeaseStore(met *Metrics) *LeaseStore {
	s := &LeaseStore{met: met}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*lease)
	}
	return s
}

func (s *LeaseStore) shard(serial string) *leaseShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(serial); i++ {
		h ^= uint64(serial[i])
		h *= 1099511628211
	}
	return &s.shards[h%leaseShards]
}

func slotOf(t time.Time) int64 { return t.UnixNano() / int64(wheelSlotWidth) }

// wheelIdx maps an absolute slot to a ring position, handling the
// negative slot numbers of pre-1970 clocks (the zero time.Time).
func wheelIdx(abs int64) int { return int(((abs % wheelSlots) + wheelSlots) % wheelSlots) }

// advance sweeps wheel slots between the shard's last position and
// now, evicting expired leases and re-bucketing far-future ones that
// were clamped to the wheel horizon. Caller holds sh.mu.
func (s *LeaseStore) advance(sh *leaseShard, now time.Time) {
	target := slotOf(now)
	if sh.lastSlot == 0 {
		sh.lastSlot = target
		return
	}
	steps := target - sh.lastSlot
	if steps <= 0 {
		return
	}
	if steps > wheelSlots {
		steps = wheelSlots
	}
	for i := int64(1); i <= steps; i++ {
		idx := wheelIdx(sh.lastSlot + i)
		slot := sh.wheel[idx]
		if len(slot) == 0 {
			continue
		}
		sh.wheel[idx] = slot[:0]
		for _, ref := range slot {
			if ref.gen != ref.l.gen || sh.m[ref.l.serial] != ref.l {
				continue // stale since a renewal, or released
			}
			if !ref.l.until.After(now) {
				delete(sh.m, ref.l.serial)
				if s.met != nil {
					s.met.LeasesExpired.Add(1)
				}
				continue
			}
			s.insertRef(sh, target, ref)
		}
	}
	sh.lastSlot = target
}

// refSlot is the absolute slot a reference to a lease expiring at
// until goes in: its expiry's slot, clamped to the wheel horizon
// (expiries beyond it re-bucket on sweep). cur is the wheel's current
// absolute slot.
func refSlot(until time.Time, cur int64) int64 {
	return min(max(slotOf(until), cur+1), cur+wheelSlots-1)
}

// insertRef buckets a reference by expiry and records its slot as the
// lease's live one. Caller holds sh.mu; cur is the wheel's current
// absolute slot.
func (s *LeaseStore) insertRef(sh *leaseShard, cur int64, ref wheelRef) {
	ref.l.slot = refSlot(ref.l.until, cur)
	idx := wheelIdx(ref.l.slot)
	sh.wheel[idx] = append(sh.wheel[idx], ref)
}

// Acquire grants or renews the lease for a device serial. Renewal is
// the fast path: an existing live lease is refreshed in place (map
// entry and wheel reference reused) rather than deleted and re-created;
// only a renewal that pulls the expiry before the reference's slot
// appends a new one. A lease that expired but has not been swept yet
// counts as expired and is reused for the fresh grant. Returns true
// when this was a renewal.
func (s *LeaseStore) Acquire(serial, class string, cell CellKey, until, now time.Time) (renewed bool) {
	sh := s.shard(serial)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.advance(sh, now)
	cur := sh.lastSlot
	l, ok := sh.m[serial]
	renewed = ok && l.until.After(now)
	if s.met != nil {
		switch {
		case renewed:
			s.met.LeasesRenewed.Add(1)
		case ok:
			s.met.LeasesExpired.Add(1)
			fallthrough
		default:
			s.met.LeasesGranted.Add(1)
		}
	}
	if !ok {
		l = &lease{serial: serial, class: class, cell: cell, until: until, gen: 1}
		sh.m[serial] = l
		s.insertRef(sh, cur, wheelRef{l, l.gen})
		return false
	}
	l.until = until
	l.cell = cell
	l.class = class
	if refSlot(until, cur) < l.slot {
		l.gen++
		s.insertRef(sh, cur, wheelRef{l, l.gen})
	}
	return renewed
}

// Release drops a device's lease (a polite vacate / cessation notify).
// Returns true if an unexpired lease existed; one that expired but has
// not been swept yet is dropped and counted as expired.
func (s *LeaseStore) Release(serial string, now time.Time) bool {
	sh := s.shard(serial)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.advance(sh, now)
	l, ok := sh.m[serial]
	if !ok {
		return false
	}
	delete(sh.m, serial) // its wheel ref sweeps out unevicted
	if l.until.After(now) {
		return true
	}
	if s.met != nil {
		s.met.LeasesExpired.Add(1)
	}
	return false
}

// Active returns the exact number of unexpired leases at now,
// advancing every shard's wheel on the way.
func (s *LeaseStore) Active(now time.Time) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		s.advance(sh, now)
		for _, l := range sh.m {
			if l.until.After(now) {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Occupancy summarizes how leases spread across the store's shards —
// the health-probe view of hash balance. A Max far above Total/Shards
// means one shard is serializing grants (hot serial prefix or a bad
// hash); Occupied counts shards holding at least one unexpired lease.
type Occupancy struct {
	Shards   int `json:"shards"`
	Occupied int `json:"occupied"`
	Max      int `json:"max_per_shard"`
	Total    int `json:"total"`
}

// Occupancy walks every shard at now, advancing wheels the same way
// Active does, and reports the distribution of unexpired leases.
func (s *LeaseStore) Occupancy(now time.Time) Occupancy {
	o := Occupancy{Shards: leaseShards}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		s.advance(sh, now)
		n := 0
		for _, l := range sh.m {
			if l.until.After(now) {
				n++
			}
		}
		sh.mu.Unlock()
		if n > 0 {
			o.Occupied++
		}
		if n > o.Max {
			o.Max = n
		}
		o.Total += n
	}
	return o
}
