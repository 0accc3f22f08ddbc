package propagation

import "cellfi/internal/geo"

// LinkCache memoizes the static part of a link budget — path loss plus
// frozen shadowing (Model.LinkLossDB) — keyed by a directed (tx, rx)
// node-ID pair. Link loss between static endpoints never changes, yet
// internal/lte's SINR paths ask for it on every subframe; the cache
// turns those recomputations into one map probe. It serves internal/lte
// only: internal/wifi never moves a node and, like internal/netsim,
// keeps its static link budget in a dense per-pair table indexed by
// registration order.
//
// Entries never expire: the positions are consulted only on a miss, so
// the cache is for static endpoints. No caller moves a node under one
// (lte's scenarios place every cell and client once); a simulator that
// does needs a fresh cache, or its own table as netsim keeps.
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
}

type linkEntry struct {
	lossDB float64
	// gainLin is 10^(-lossDB/10), filled lazily on the first
	// PathGainLinear query of the entry (gainSet); loss-only users never
	// pay the pow.
	gainLin float64
	gainSet bool
}

// NewLinkCache wraps a propagation model in a link-loss cache. nodes is
// the map's size hint.
func NewLinkCache(model *Model, nodes int) *LinkCache {
	return &LinkCache{
		model:   model,
		entries: make(map[uint64]linkEntry, max(nodes, 0)),
	}
}

// LossDB returns Model.LinkLossDB(txPos, rxPos), cached under the
// directed pair (tx, rx). The positions are only consulted on a miss.
func (c *LinkCache) LossDB(tx, rx int, txPos, rxPos geo.Point) float64 {
	key := LinkID(tx, rx)
	if ent, ok := c.entries[key]; ok {
		return ent.lossDB
	}
	loss := c.model.LinkLossDB(txPos, rxPos)
	c.entries[key] = linkEntry{lossDB: loss}
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
	ent, ok := c.entries[key]
	if !ok {
		ent = linkEntry{lossDB: c.model.LinkLossDB(txPos, rxPos)}
	}
	if !ent.gainSet {
		ent.gainLin = DBmToMW(-ent.lossDB) // 10^(-loss/10)
		ent.gainSet = true
		c.entries[key] = ent
	}
	return ent.gainLin
}

// CacheStats reports a link cache's hit/miss counters; netsim's
// LinkCacheStats, which the benchmark reads, is the one reporter.
type CacheStats struct {
	Hits, Misses uint64
	Entries      int
}
