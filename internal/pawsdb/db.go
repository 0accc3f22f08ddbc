package pawsdb

import (
	"sync"
	"sync/atomic"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/spectrum"
)

// Options configure a DB. The zero value gives production defaults.
type Options struct {
	// CellSizeM is the grid cell edge in metres (index and cache
	// granularity). Default 2000 — metro AP densities put hundreds of
	// APs per cell, TV protection contours span many cells.
	CellSizeM float64
	// DisableCache turns the response cache off (every query computes
	// from the index). Used by the load harness to measure the
	// cache's win and by tests.
	DisableCache bool
}

func (o Options) withDefaults() Options {
	if o.CellSizeM <= 0 {
		o.CellSizeM = 2000
	}
	return o
}

// snapshot is one immutable (index, cache) pair built from the
// registry at a specific incumbent-set epoch.
type snapshot struct {
	epoch   int64
	index   *gridIndex
	cache   *respCache
	spectra *spectraCache
}

// DB is the spectrum-database core: a spectrum.Registry wrapped with
// the grid index, response cache, lease store and metrics. See the
// package comment for the concurrency model.
type DB struct {
	reg    *spectrum.Registry
	opts   Options
	mu     sync.Mutex // serializes snapshot rebuilds and external registry mutation
	snap   atomic.Pointer[snapshot]
	leases *LeaseStore
	met    Metrics
}

// New wraps a registry. The registry stays the single source of truth
// for incumbents; the DB notices mutations via Registry.Epoch.
func New(reg *spectrum.Registry, opts Options) *DB {
	db := &DB{reg: reg, opts: opts.withDefaults()}
	db.leases = newLeaseStore(&db.met)
	return db
}

// Registry exposes the backing registry.
func (db *DB) Registry() *spectrum.Registry { return db.reg }

// Leases exposes the lease store.
func (db *DB) Leases() *LeaseStore { return db.leases }

// Metrics exposes the live counters for hot-path updates.
func (db *DB) Metrics() *Metrics { return &db.met }

// SnapshotEpoch reports the incumbent-set epoch the currently served
// (index, cache) snapshot was built from, or -1 before the first
// query forces a build. A health probe comparing it against
// Registry().Epoch() can tell a stale snapshot from a fresh one
// without paying for a rebuild.
func (db *DB) SnapshotEpoch() int64 {
	if s := db.snap.Load(); s != nil {
		return s.epoch
	}
	return -1
}

// Lock and Unlock guard external registry mutation while the DB is
// serving (the paws.Server Lock/Unlock contract). Queries running
// concurrently with a held lock serve the previous snapshot until the
// mutation bumps the registry epoch.
func (db *DB) Lock()   { db.mu.Lock() }
func (db *DB) Unlock() { db.mu.Unlock() }

// snapshotNow returns a snapshot current for the registry's epoch,
// rebuilding index and cache if incumbents changed since the last one.
func (db *DB) snapshotNow() *snapshot {
	s := db.snap.Load()
	v := db.reg.Epoch()
	if s != nil && s.epoch == v {
		return s
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	s = db.snap.Load()
	v = db.reg.Epoch()
	if s != nil && s.epoch == v {
		return s
	}
	s = &snapshot{
		epoch: v,
		index: buildIndex(db.reg, db.opts.CellSizeM),
	}
	if !db.opts.DisableCache {
		s.cache = newRespCache()
		s.spectra = &spectraCache{}
	}
	db.snap.Store(s)
	db.met.Rebuilds.Add(1)
	return s
}

// QueryResult carries one availability answer plus the cache context
// the PAWS server uses for response rendering.
type QueryResult struct {
	// Avail is exactly what spectrum.Registry.AvailableAt would have
	// returned for the same (point, time).
	Avail []spectrum.ChannelInfo
	// Entry is the cache entry the answer was served from or stored
	// into; nil when the cell's answer was not uniform (uncacheable)
	// or the cache is disabled.
	Entry *CacheEntry
	// Hit reports whether Entry existed before this query.
	Hit bool
	// Mask is the blocked-channel bitmask behind Avail (bit i =
	// channel first+i blocked). It keys the premarshaled-spectra
	// slots, so boundary cells share renderings with uniform ones.
	Mask uint64
	// Spectra is the rendering slot for Mask in the snapshot that
	// answered this query; nil when the cache is disabled or the mask
	// table is full. The PAWS server stores the marshaled spectra JSON
	// here and reuses it for any answer with the same mask.
	Spectra *AuxSlot
	// Cell is the grid cell the query fell in.
	Cell CellKey
}

// Query answers the regulatory availability question for a device of
// the given class under the given ruleset. It is safe for arbitrary
// concurrency and lock-free when the cache hits.
func (db *DB) Query(p geo.Point, class, ruleset string, t time.Time) QueryResult {
	db.met.Queries.Add(1)
	s := db.snapshotNow()
	g := s.index
	res := QueryResult{Cell: g.cellOf(p)}
	until := t.Add(db.reg.LeaseDuration)
	eirp := db.reg.DefaultMaxEIRPdBm

	if s.cache != nil {
		key := cacheKey{cell: res.Cell, class: class, ruleset: ruleset}
		e := s.cache.get(key, t)
		switch {
		case e != nil && e.nonuniform:
			// Negative hit: the cell is known to straddle a protection
			// boundary until the next schedule edge, so skip the
			// cell-uniformity scan and answer point-exact from the
			// index.
			db.met.CacheNegHits.Add(1)
			res.Mask = g.blockedAt(p, t)
		case e != nil:
			db.met.CacheHits.Add(1)
			res.Entry, res.Hit = e, true
			res.Mask = e.blocked
		default:
			db.met.CacheMisses.Add(1)
			ans := g.evalCell(res.Cell, p, t)
			res.Mask = ans.blockedAtP
			if ans.uniform {
				ne := &CacheEntry{blocked: ans.blockedAtP, from: t, until: ans.validUntil}
				s.cache.put(key, ne)
				res.Entry = ne
			} else {
				db.met.CacheUncacheable.Add(1)
				s.cache.put(key, &CacheEntry{nonuniform: true, from: t, until: ans.validUntil})
			}
		}
		res.Avail = g.materialize(res.Mask, eirp, until)
		res.Spectra = s.spectra.slot(res.Mask)
		return res
	}

	res.Mask = g.blockedAt(p, t)
	res.Avail = g.materialize(res.Mask, eirp, until)
	return res
}

// ChannelAvailable reports whether one channel is usable at (p, t),
// answered through the index (no cache — single-channel checks are
// already cheap and appear on the notify path where exactness against
// the reported location matters).
func (db *DB) ChannelAvailable(ch int, p geo.Point, t time.Time) bool {
	g := db.snapshotNow().index
	if ch < g.first || ch > g.last {
		return false
	}
	return g.blockedAt(p, t)&g.chanBit(ch) == 0
}
