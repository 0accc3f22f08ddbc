// Package pawsdb is the production-shaped spectrum-database core that
// backs the RFC 7545 PAWS server in internal/paws. In the paper's
// deployment a single Nominet-style database is the coordination point
// for every white-space AP in a country, so this layer is built for
// metro-scale query rates rather than the linear incumbent scan the
// seed used:
//
//   - a geospatial channel-availability index (uniform grid over
//     internal/geo cells; incumbents bucketed into every cell their
//     protect-radius footprint overlaps, with oversized footprints
//     falling back to a short always-checked list) that answers
//     AvailableAt by testing only the incumbents that can possibly
//     protect the query point — byte-identical to the registry's
//     linear scan, which a 100-seed randomized equivalence test pins;
//
//   - a response cache keyed on (location cell, device class,
//     ruleset). An entry is stored only when the answer is provably
//     uniform across the whole cell (every candidate incumbent's
//     protection circle either fully covers or fully misses the cell,
//     with an epsilon guard band so floating-point edge cases fall
//     back to exact evaluation) and carries a validity window bounded
//     by the next incumbent schedule boundary, so cached answers are
//     never approximations. Boundary-straddling cells get a negative
//     entry with the same validity window, so repeat queries skip the
//     uniformity scan and evaluate point-exact; marshaled spectra are
//     cached separately, keyed by blocked-channel mask, and shared by
//     every cell with the same availability. Incumbent-set changes
//     invalidate all of it wholesale through the snapshot epoch;
//
//   - a lease store keyed by device serial with a TTL timing wheel
//     for eviction and a renewal fast path that refreshes an existing
//     lease in place, sharded 64 ways so concurrent grants do not
//     serialize. Each lease keeps one live wheel reference; a renewal
//     moves it only when the new expiry falls before its slot (the
//     sweep re-buckets the rest), so the wheel holds O(live leases)
//     references however often devices renew;
//
//   - metrics: atomic counters (queries, cache hits/misses, rebuilds,
//     lease churn) plus a lock-free latency histogram giving p50/p99.
//
// Concurrency model: the read path is lock-free. The index and cache
// live in an immutable snapshot behind an atomic pointer; queries load
// the snapshot, compare its epoch against spectrum.Registry.Epoch()
// and only take the rebuild mutex when incumbents actually changed
// (the registry's own mutation contract — the PAWS server's
// Lock/Unlock — is unchanged). The snapshot swap IS the cache epoch:
// a new incumbent set produces a fresh snapshot with an empty cache,
// so no per-entry epoch checks are needed on the hot path.
package pawsdb
