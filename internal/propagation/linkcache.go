package propagation

import "cellfi/internal/geo"

// LinkCache memoizes the static part of a link budget — path loss plus
// frozen shadowing (Model.LinkLossDB) — as a linear path gain, keyed by
// a directed (tx, rx) node-ID pair. No simulator uses it: internal/lte
// keeps each link's static loss in its per-subchannel received-power
// table (lte.Environment's rxTab entry), and internal/wifi and
// internal/netsim keep their static link budgets in dense per-pair
// tables indexed by registration order. It stays for the benchmark's
// propagation.linkcache_lookup_ns row.
//
// Entries never expire: the positions are consulted only on a miss, so
// the cache is for static endpoints. Node IDs are caller-defined and
// the key order is never normalized, so (tx, rx) and (rx, tx) are
// separate entries.
//
// A LinkCache is deterministic by construction: it caches the exact
// float64 the uncached conversion returns. It is not safe for
// concurrent use.
type LinkCache struct {
	model   *Model
	entries map[uint64]float64
}

// NewLinkCache wraps a propagation model in a link-gain cache. nodes is
// the map's size hint.
func NewLinkCache(model *Model, nodes int) *LinkCache {
	return &LinkCache{
		model:   model,
		entries: make(map[uint64]float64, max(nodes, 0)),
	}
}

// PathGainLinear returns the link's static path gain as a linear power
// factor, 10^(-Model.LinkLossDB(txPos, rxPos)/10), cached under the
// directed pair (tx, rx). The positions are only consulted on a miss.
// Interferer sums in milliwatts multiply this by the transmit power
// instead of converting dBm per (interferer, receiver) pair — the pow
// runs once per link per topology, not once per sum term.
func (c *LinkCache) PathGainLinear(tx, rx int, txPos, rxPos geo.Point) float64 {
	key := LinkID(tx, rx)
	if g, ok := c.entries[key]; ok {
		return g
	}
	g := DBmToMW(-c.model.LinkLossDB(txPos, rxPos)) // 10^(-loss/10)
	c.entries[key] = g
	return g
}

// CacheStats reports a link cache's hit/miss counters; netsim's
// LinkCacheStats, which the benchmark reads, is the one reporter.
type CacheStats struct {
	Hits, Misses uint64
	Entries      int
}
