package propagation

import "cellfi/internal/geo"

// LinkCache memoizes the static part of a link budget — path loss plus
// frozen shadowing (Model.LinkLossDB) — keyed by a directed (tx, rx)
// node-ID pair. Link loss between static endpoints never changes, yet
// internal/lte's SINR paths ask for it on every subframe; the cache
// turns those recomputations into one map probe, and its epochs let a
// moved client's links recompute. It serves internal/lte only:
// internal/wifi never moves a node and, like internal/netsim, keeps its
// static link budget in a dense per-pair table indexed by registration
// order.
//
// Invalidation is epoch-based and O(1): every node ID carries an epoch
// counter, each cache entry remembers the epochs of both endpoints at
// fill time, and an entry whose endpoint epochs no longer match is
// recomputed on next use. Callers that move a node (mobility steps,
// handover re-sites) must call Invalidate with that node's ID
// (lte.Environment.Invalidate). Over-invalidation is harmless (one
// extra recompute); skipping Invalidate after a position change serves
// stale gains.
//
// Node IDs are caller-defined. The cache never normalizes key order, so
// two ID spaces (say cells and clients) may overlap safely as long as
// every (tx, rx) pair is unambiguous in the caller's convention —
// internal/lte always keys (cell, client).
//
// A LinkCache is deterministic by construction: it caches the exact
// float64 LinkLossDB returns, so cached and uncached runs are
// byte-identical. It is not safe for concurrent use; give each
// simulation (engine) its own cache, as each scenario run does.
type LinkCache struct {
	model   *Model
	entries map[uint64]linkEntry
	epochs  []uint32

	hits, misses, invalidations uint64
}

type linkEntry struct {
	lossDB float64
	// gainLin is 10^(-lossDB/10), filled lazily on the first
	// PathGainLinear query of the entry (gainSet); loss-only users never
	// pay the pow.
	gainLin          float64
	gainSet          bool
	txEpoch, rxEpoch uint32
}

// NewLinkCache wraps a propagation model in a link-loss cache. nodes
// sizes the epoch table; IDs at or above it grow the table on demand.
func NewLinkCache(model *Model, nodes int) *LinkCache {
	if nodes < 0 {
		nodes = 0
	}
	return &LinkCache{
		model:   model,
		entries: make(map[uint64]linkEntry),
		epochs:  make([]uint32, nodes),
	}
}

// epoch returns node's current epoch, growing the table if needed.
func (c *LinkCache) epoch(node int) uint32 {
	if node >= len(c.epochs) {
		grown := make([]uint32, node+1)
		copy(grown, c.epochs)
		c.epochs = grown
	}
	return c.epochs[node]
}

// LossDB returns Model.LinkLossDB(txPos, rxPos), cached under the
// directed pair (tx, rx). The positions are only consulted on a miss;
// after a node moves, call Invalidate(node) or its links go stale.
func (c *LinkCache) LossDB(tx, rx int, txPos, rxPos geo.Point) float64 {
	key := LinkID(tx, rx)
	te, re := c.epoch(tx), c.epoch(rx)
	if ent, ok := c.entries[key]; ok && ent.txEpoch == te && ent.rxEpoch == re {
		c.hits++
		return ent.lossDB
	}
	c.misses++
	loss := c.model.LinkLossDB(txPos, rxPos)
	c.entries[key] = linkEntry{lossDB: loss, txEpoch: te, rxEpoch: re}
	return loss
}

// PathGainLinear returns the link's static path gain as a linear power
// factor, 10^(-LossDB/10), memoized alongside the dB entry. Interferer
// sums in milliwatts multiply this by the transmit power instead of
// converting dBm per (interferer, receiver) pair — the pow runs once
// per link per topology, not once per sum term. No simulator calls it
// today; the benchmark's propagation.linkcache_lookup_ns row times it.
func (c *LinkCache) PathGainLinear(tx, rx int, txPos, rxPos geo.Point) float64 {
	key := LinkID(tx, rx)
	te, re := c.epoch(tx), c.epoch(rx)
	ent, ok := c.entries[key]
	if !ok || ent.txEpoch != te || ent.rxEpoch != re {
		c.misses++
		ent = linkEntry{lossDB: c.model.LinkLossDB(txPos, rxPos), txEpoch: te, rxEpoch: re}
	} else {
		c.hits++
	}
	if !ent.gainSet {
		ent.gainLin = DBmToMW(-ent.lossDB) // 10^(-loss/10)
		ent.gainSet = true
		c.entries[key] = ent
	}
	return ent.gainLin
}

// Invalidate marks every cached link touching node stale in O(1); the
// affected entries recompute lazily on next lookup.
func (c *LinkCache) Invalidate(node int) {
	c.epoch(node) // ensure the table covers node
	c.epochs[node]++
	c.invalidations++
}

// CacheStats reports a LinkCache's hit/miss counters.
type CacheStats struct {
	Hits, Misses, Invalidations uint64
	Entries                     int
}

// Stats returns a snapshot of the cache counters.
func (c *LinkCache) Stats() CacheStats {
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Entries:       len(c.entries),
	}
}
