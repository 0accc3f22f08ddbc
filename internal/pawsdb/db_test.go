package pawsdb

import (
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/spectrum"
)

var t0 = time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC)

// randomRegistry builds a seeded registry whose incumbents exercise
// every index path: tiny and huge protect radii (huge ones land on the
// global list), schedule windows around t0, both incumbent kinds, and
// occasional co-channel overlaps.
func randomRegistry(rng *rand.Rand, dom spectrum.Domain) *spectrum.Registry {
	reg := spectrum.NewRegistry(dom)
	first, last := dom.ChannelRange()
	n := rng.Intn(40)
	for i := 0; i < n; i++ {
		inc := spectrum.Incumbent{
			Kind:    spectrum.IncumbentKind(rng.Intn(2)),
			Channel: first + rng.Intn(last-first+1),
			Location: geo.Point{
				X: (rng.Float64() - 0.5) * 60000,
				Y: (rng.Float64() - 0.5) * 60000,
			},
		}
		switch rng.Intn(5) {
		case 0:
			inc.ProtectRadius = 0
		case 1:
			inc.ProtectRadius = rng.Float64() * 500
		case 2:
			inc.ProtectRadius = 1000 + rng.Float64()*8000
		case 3:
			inc.ProtectRadius = 50000 + rng.Float64()*100000 // global list
		case 4:
			inc.ProtectRadius = 1e7 // blanket coverage
		}
		switch rng.Intn(3) {
		case 0: // always on
			inc.From = t0.Add(-time.Hour)
		case 1: // scheduled window near the query times
			inc.From = t0.Add(time.Duration(rng.Intn(600)-300) * time.Second)
			inc.To = inc.From.Add(time.Duration(30+rng.Intn(600)) * time.Second)
		case 2: // not yet active
			inc.From = t0.Add(time.Duration(rng.Intn(600)) * time.Second)
		}
		if err := reg.AddIncumbent(inc); err != nil {
			panic(err)
		}
	}
	return reg
}

// queryPoints mixes uniform random points with adversarial ones that
// sit exactly on protection boundaries (distance == ProtectRadius) and
// exactly on grid-cell edges.
func queryPoints(rng *rand.Rand, reg *spectrum.Registry, cellSize float64, n int) []geo.Point {
	pts := make([]geo.Point, 0, n)
	incs := reg.Incumbents()
	for i := 0; i < n; i++ {
		switch {
		case len(incs) > 0 && i%4 == 1:
			// Exactly on a protect-radius boundary, axis-aligned so
			// the distance computation is exact in float64.
			inc := incs[rng.Intn(len(incs))]
			pts = append(pts, geo.Point{X: inc.Location.X + inc.ProtectRadius, Y: inc.Location.Y})
		case len(incs) > 0 && i%4 == 2:
			// Just inside / just outside a boundary.
			inc := incs[rng.Intn(len(incs))]
			d := inc.ProtectRadius * (1 + (rng.Float64()-0.5)*1e-3)
			th := rng.Float64() * 6.28318
			pts = append(pts, geo.Point{
				X: inc.Location.X + d*mathCos(th),
				Y: inc.Location.Y + d*mathSin(th),
			})
		case i%4 == 3:
			// Exactly on a grid-cell corner.
			pts = append(pts, geo.Point{
				X: float64(rng.Intn(40)-20) * cellSize,
				Y: float64(rng.Intn(40)-20) * cellSize,
			})
		default:
			pts = append(pts, geo.Point{
				X: (rng.Float64() - 0.5) * 80000,
				Y: (rng.Float64() - 0.5) * 80000,
			})
		}
	}
	return pts
}

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestIndexScanEquivalence is the acceptance property for the grid
// index and response cache: across 100 seeded random registries
// (PAWSDB_SEEDS overrides), at boundary-adversarial points and times
// that cross incumbent schedule edges, DB.Query must return a
// byte-identical ChannelInfo set to the registry's linear scan — with
// the cache cold, warm, and disabled. Repeated queries per point make
// the second pass hit the cache, so a cache that ever served a wrong
// cell-wide answer fails here too.
func TestIndexScanEquivalence(t *testing.T) {
	seeds := envInt("PAWSDB_SEEDS", 100)
	if testing.Short() {
		seeds = 20
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		dom := spectrum.US
		if seed%2 == 1 {
			dom = spectrum.EU
		}
		reg := randomRegistry(rng, dom)
		cellSize := []float64{500, 2000, 7000}[seed%3]
		db := New(reg, Options{CellSizeM: cellSize})
		dbNoCache := New(reg, Options{CellSizeM: cellSize, DisableCache: true})
		pts := queryPoints(rng, reg, cellSize, 40)
		times := []time.Time{
			t0,
			t0.Add(90 * time.Second),
			t0.Add(400 * time.Second),
			t0.Add(20 * time.Minute),
		}
		for _, now := range times {
			for pi, p := range pts {
				want := reg.AvailableAt(p, now)
				for pass := 0; pass < 2; pass++ { // cold then (maybe) cached
					got := db.Query(p, "", "", now).Avail
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d cell %.0f t=%v point %d pass %d: index answer diverged from linear scan\n got %v\nwant %v",
							seed, cellSize, now.Sub(t0), pi, pass, got, want)
					}
				}
				if got := dbNoCache.Query(p, "", "", now).Avail; !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d cell %.0f t=%v point %d: uncached index diverged\n got %v\nwant %v",
						seed, cellSize, now.Sub(t0), pi, got, want)
				}
				// Single-channel path must agree with the set answer.
				first, last := reg.Domain.ChannelRange()
				for ch := first; ch <= last; ch += 7 {
					if got, want := db.ChannelAvailable(ch, p, now), reg.ChannelAvailable(ch, p, now); got != want {
						t.Fatalf("seed %d: ChannelAvailable(%d) = %v, linear scan %v", seed, ch, got, want)
					}
				}
			}
		}
	}
}

// TestEquivalenceAcrossMutation: adding and removing incumbents must
// invalidate the cache (snapshot epoch) so stale answers never leak.
func TestEquivalenceAcrossMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	reg := randomRegistry(rng, spectrum.EU)
	db := New(reg, Options{})
	pts := queryPoints(rng, reg, 2000, 25)
	now := t0
	for round := 0; round < 8; round++ {
		now = now.Add(45 * time.Second)
		for _, p := range pts {
			want := reg.AvailableAt(p, now)
			if got := db.Query(p, "", "", now).Avail; !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: diverged after mutation\n got %v\nwant %v", round, got, want)
			}
		}
		if round%2 == 0 {
			_ = reg.AddIncumbent(spectrum.Incumbent{
				Kind: spectrum.WirelessMic, Channel: 21 + rng.Intn(40),
				Location:      pts[rng.Intn(len(pts))],
				ProtectRadius: rng.Float64() * 20000,
				From:          now,
			})
		} else {
			reg.RemoveIncumbents(21 + rng.Intn(40))
		}
	}
	// Every effective mutation (RemoveIncumbents on an empty channel
	// bumps nothing) must have produced a fresh snapshot.
	if r := db.Metrics().Rebuilds.Load(); r < 4 {
		t.Errorf("expected snapshot rebuilds to track mutations, got %d", r)
	}
}

// TestCacheBasics checks hit accounting, the uniformity rule and the
// schedule-boundary validity window directly.
func TestCacheBasics(t *testing.T) {
	reg := spectrum.NewRegistry(spectrum.EU)
	// A blanket mic event active from t0+100s for 60s: it fully
	// covers the probe cell (uniform answer) but is scheduled, so
	// cached entries must expire at its activation edge.
	if err := reg.AddIncumbent(spectrum.Incumbent{
		Kind: spectrum.WirelessMic, Channel: 30,
		Location: geo.Point{X: 500, Y: 500}, ProtectRadius: 1e7,
		From: t0.Add(100 * time.Second), To: t0.Add(160 * time.Second),
	}); err != nil {
		t.Fatal(err)
	}
	db := New(reg, Options{CellSizeM: 1000})
	p := geo.Point{X: 500, Y: 500}

	r1 := db.Query(p, "FIXED", "ETSI", t0)
	if r1.Hit || r1.Entry == nil {
		t.Fatalf("first query: hit=%v entry=%v, want miss+stored", r1.Hit, r1.Entry)
	}
	r2 := db.Query(p, "FIXED", "ETSI", t0.Add(10*time.Second))
	if !r2.Hit || r2.Entry != r1.Entry {
		t.Fatalf("second query should hit the stored entry")
	}
	// Different device class: distinct cache slot.
	if r := db.Query(p, "MODE_2", "ETSI", t0.Add(10*time.Second)); r.Hit {
		t.Fatalf("device class must partition the cache")
	}
	// The entry's window must end at the mic's activation edge.
	if got := r1.Entry.until; !got.Equal(t0.Add(100 * time.Second)) {
		t.Fatalf("entry validity = %v, want the schedule edge %v", got, t0.Add(100*time.Second))
	}
	if r := db.Query(p, "FIXED", "ETSI", t0.Add(120*time.Second)); r.Hit {
		t.Fatalf("entry must expire at the incumbent's activation edge")
	}

	// A boundary crossing the queried cell makes it uncacheable.
	if err := reg.AddIncumbent(spectrum.Incumbent{
		Kind: spectrum.TVStation, Channel: 25,
		Location: geo.Point{X: 0, Y: 0}, ProtectRadius: 700, From: t0,
	}); err != nil {
		t.Fatal(err)
	}
	r3 := db.Query(p, "FIXED", "ETSI", t0)
	if r3.Entry != nil {
		t.Fatalf("boundary-crossed cell must be uncacheable")
	}
	if db.Metrics().CacheUncacheable.Load() == 0 {
		t.Error("uncacheable counter not bumped")
	}
}

// TestOversizedIncumbentGoesGlobal pins the footprint cap: a
// country-scale protect radius must not explode the cell map.
func TestOversizedIncumbentGoesGlobal(t *testing.T) {
	reg := spectrum.NewRegistry(spectrum.EU)
	if err := reg.AddIncumbent(spectrum.Incumbent{
		Kind: spectrum.TVStation, Channel: 21,
		ProtectRadius: 1e7, From: t0.Add(-time.Hour),
	}); err != nil {
		t.Fatal(err)
	}
	db := New(reg, Options{CellSizeM: 2000})
	avail := db.Query(geo.Point{X: 1e6, Y: 1e6}, "", "", t0).Avail
	for _, ci := range avail {
		if ci.Channel == 21 {
			t.Fatal("blanket incumbent not enforced far from origin")
		}
	}
	g := db.snapshotNow().index
	if len(g.global) != 1 || len(g.cells) != 0 {
		t.Fatalf("blanket incumbent should be global-only: global=%d cells=%d", len(g.global), len(g.cells))
	}
}

func mathCos(x float64) float64 { return math.Cos(x) }
func mathSin(x float64) float64 { return math.Sin(x) }
