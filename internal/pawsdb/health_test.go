package pawsdb

import (
	"fmt"
	"testing"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/spectrum"
)

// TestSnapshotEpoch: the health probe's staleness signal. -1 before
// any snapshot exists, tracks the registry epoch once queries build
// one, and lags behind a registry mutation until the next query.
func TestSnapshotEpoch(t *testing.T) {
	reg := spectrum.NewRegistry(spectrum.EU)
	db := New(reg, Options{})

	if e := db.SnapshotEpoch(); e != -1 {
		t.Fatalf("epoch before first build = %d, want -1", e)
	}
	db.Query(geo.Point{}, "", "", t0)
	if e := db.SnapshotEpoch(); e != reg.Epoch() {
		t.Fatalf("epoch after build = %d, registry at %d", e, reg.Epoch())
	}
	db.Lock()
	err := reg.AddIncumbent(spectrum.Incumbent{
		Kind: spectrum.WirelessMic, Channel: 21,
		ProtectRadius: 1000, From: t0,
	})
	db.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if e := db.SnapshotEpoch(); e == reg.Epoch() {
		t.Fatal("snapshot claims current epoch before rebuild")
	}
	db.Query(geo.Point{}, "", "", t0)
	if e := db.SnapshotEpoch(); e != reg.Epoch() {
		t.Fatalf("epoch after mutation+query = %d, registry at %d", e, reg.Epoch())
	}
}

// TestLeaseOccupancy: the shard-distribution gauge agrees with Active
// and its aggregate bounds hold as leases are granted and expire.
func TestLeaseOccupancy(t *testing.T) {
	s := newLeaseStore(nil)
	now := t0

	o := s.Occupancy(now)
	if o.Shards != leaseShards || o.Total != 0 || o.Occupied != 0 || o.Max != 0 {
		t.Fatalf("empty store occupancy = %+v", o)
	}

	const n = 500
	for i := 0; i < n; i++ {
		s.Acquire(fmt.Sprintf("AP-%04d", i), "FIXED", CellKey{}, now.Add(time.Minute), now)
	}
	o = s.Occupancy(now)
	if o.Total != n {
		t.Fatalf("total = %d, want %d", o.Total, n)
	}
	if o.Total != s.Active(now) {
		t.Fatalf("occupancy total %d != Active %d", o.Total, s.Active(now))
	}
	if o.Occupied < 2 || o.Occupied > leaseShards {
		t.Fatalf("occupied shards = %d — serial hash is degenerate", o.Occupied)
	}
	// Max is at least the mean (pigeonhole) and never exceeds Total.
	if o.Max*o.Shards < o.Total || o.Max > o.Total {
		t.Fatalf("max/shard = %d inconsistent with total %d over %d shards",
			o.Max, o.Total, o.Shards)
	}

	// Expiry drains the gauge.
	now = now.Add(2 * time.Minute)
	if o = s.Occupancy(now); o.Total != 0 || o.Occupied != 0 || o.Max != 0 {
		t.Fatalf("occupancy after expiry = %+v", o)
	}
}
