package lte

import (
	"math"

	"cellfi/internal/geo"
	"cellfi/internal/propagation"
)

// Link-level radio model: cells, clients, and per-subchannel SINR
// computation including neighbouring-cell interference. This is the
// substrate for the paper's link experiments (Figures 1, 7 and 8).

// Activity describes what an interfering cell is transmitting.
type Activity int

const (
	// Off: radio disabled, no interference.
	Off Activity = iota
	// SignallingOnly: no user data, but reference signals, sync
	// signals and control channels are always on. Roughly 15% of
	// downlink resource elements, matching the paper's finding that
	// signalling-only interference costs at most ~20% goodput
	// (Figure 7b).
	SignallingOnly
	// FullBuffer: backlogged data in every subframe.
	FullBuffer
)

// DutyFactor returns the fraction of resource elements the activity
// level occupies, i.e. the effective interference scaling.
func (a Activity) DutyFactor() float64 {
	switch a {
	case Off:
		return 0
	case SignallingOnly:
		return 0.15
	case FullBuffer:
		return 1
	}
	return 0
}

func (a Activity) String() string {
	switch a {
	case Off:
		return "off"
	case SignallingOnly:
		return "signalling-only"
	case FullBuffer:
		return "full-buffer"
	}
	return "?"
}

// Cell is an LTE small-cell access point.
type Cell struct {
	ID         int
	Pos        geo.Point
	TxPowerDBm float64
	Antenna    propagation.Antenna
	BW         Bandwidth
	TDD        TDDConfig
	// Activity is the cell's transmit behaviour when viewed as an
	// interferer.
	Activity Activity
}

// TransmitsIn reports whether the cell emits data energy in subchannel
// sc: a FullBuffer cell transmits in every subchannel. Signalling
// (CRS/sync/PDCCH) is spread across the whole carrier regardless of
// the data allocation, which is why a cell is never interference-free
// while powered on (Section 6.3.1).
func (c *Cell) TransmitsIn(sc int) bool {
	return c.Activity == FullBuffer
}

// PerRBPowerDBm returns the transmit power allocated to one resource
// block: total power divided evenly across the carrier's RBs.
func (c *Cell) PerRBPowerDBm() float64 {
	return c.TxPowerDBm - 10*math.Log10(float64(c.BW.ResourceBlocks()))
}

// Client is a mobile device.
type Client struct {
	ID         int
	Pos        geo.Point
	TxPowerDBm float64
	// Serving is the attached cell (nil while detached).
	Serving *Cell
}

// Environment binds the propagation model to a noise figure and fading
// process, and answers SINR questions.
type Environment struct {
	Model         *propagation.Model
	Fading        *propagation.Fading
	NoiseFigureDB float64
	// cache memoizes the static link loss (path loss + frozen
	// shadowing) per (cell ID, client ID) pair, so per-subframe
	// SINR/CQI queries over a static topology skip the full model —
	// including the per-call RNG the shadowing term seeds. Positions
	// are only consulted on a miss: cells and clients stay where they
	// were placed.
	cache *propagation.LinkCache

	// rxTab caches the full per-subchannel received power — static
	// link gain plus the fading draw of the current coherence block —
	// in both dBm and mW, keyed by directed link and subchannel. The
	// fading process is a pure function of (link, subchannel, block),
	// so within one block the cached value is bit-identical to the
	// recomputation it replaces; entries self-expire when the block
	// advances. Interferer activity is NOT cached —
	// TransmitsIn gating stays per-call, so toggling a cell's
	// Activity mid-run is safe.
	//
	// The table is open-addressed with linear probing rather than a Go
	// map: every SINR query on the subframe path probes it several
	// times, and the key set (links x subchannels) is small and fixed,
	// so a flat table at < 1/2 load beats the general map by a wide
	// margin and allocates only while new keys appear.
	rxTab  []rxEntry
	rxUsed int

	// noise floor memo, guarded by the noise figure it was built for.
	noiseSet  bool
	noiseNF   float64
	noiseDBmC float64
	noiseMWC  float64
}

// rxEntry is one directed (cell -> receiver, subchannel) path's cached
// state: the coherence block's received power, plus a memo of the last
// interference denominator converted to dB (denDB is a pure function
// of denMW, so it needs no block validation — an exact match on the
// milliwatt sum guarantees an identical conversion).
type rxEntry struct {
	link  uint64
	sc    int32
	used  bool
	block int64
	// mw is filled on every (re)compute; dbm lazily on the first dB
	// query of the block (dbmOK) — interferer-only links never pay the
	// log10 at all.
	dbmOK        bool
	dbm, mw      float64
	denMW, denDB float64
}

// NewEnvironment builds the default evaluation environment: calibrated
// urban propagation, block Rayleigh fading, 7 dB receiver noise figure,
// link-gain caching on. It is the only constructor: a zero-value
// Environment has no link-loss cache and panics on its first query.
func NewEnvironment(seed int64) *Environment {
	model := propagation.DefaultUrban(seed)
	return &Environment{
		Model:         model,
		Fading:        propagation.NewFading(seed + 1),
		NoiseFigureDB: 7,
		cache:         propagation.NewLinkCache(model, 0),
	}
}

// rxPowerDBm returns the power a receiver at rxPos sees from cell tx on
// one resource block of subchannel sc at time tMS.
func (e *Environment) rxPowerDBm(tx *Cell, rxPos geo.Point, rxID, sc int, tMS int64) float64 {
	ent := e.rxLookup(tx, rxPos, rxID, sc, tMS)
	if !ent.dbmOK {
		ent.dbm, ent.dbmOK = propagation.MWToDBm(ent.mw), true
	}
	return ent.dbm
}

// rxPowerMW is rxPowerDBm in milliwatts — the interferer-summation form,
// and since kernel v2 the primary one: the memo computes mW first and
// derives dBm only on demand.
func (e *Environment) rxPowerMW(tx *Cell, rxPos geo.Point, rxID, sc int, tMS int64) float64 {
	return e.rxLookup(tx, rxPos, rxID, sc, tMS).mw
}

// rxPowerMWUncached is the direct computation behind the memo, in the
// linear domain end to end: the static dB budget converts once, then the
// fading draw multiplies in as a linear gain (no per-call log10 of the
// fade).
func (e *Environment) rxPowerMWUncached(tx *Cell, rxPos geo.Point, rxID, sc int, tMS int64) float64 {
	gain := tx.Antenna.GainDB(tx.Pos.Bearing(rxPos))
	loss := e.cache.LossDB(tx.ID, rxID, tx.Pos, rxPos)
	static := propagation.DBmToMW(tx.PerRBPowerDBm() + gain - loss)
	return static * e.Fading.GainLinear(propagation.LinkID(tx.ID, rxID), sc, tMS)
}

// rxLookup serves rxPowerDBm/rxPowerMW from the memo, computing and
// storing the mW power on the first query of a coherence block (dBm
// converts lazily; see rxEntry). The returned pointer is only valid
// until the next rxSlot call, which may grow the table.
func (e *Environment) rxLookup(tx *Cell, rxPos geo.Point, rxID, sc int, tMS int64) *rxEntry {
	block := int64(0)
	if f := e.Fading; f != nil {
		block = tMS / f.BlockMS
	}
	ent := e.rxSlot(propagation.LinkID(tx.ID, rxID), int32(sc))
	if ent.block != block {
		ent.block = block
		ent.mw = e.rxPowerMWUncached(tx, rxPos, rxID, sc, tMS)
		ent.dbmOK = false
	}
	return ent
}

// rxSlot returns the table slot for (link, sc), inserting the key on
// its first appearance. Growth keeps the load factor under 1/2 so the
// linear probes in rxProbe stay short.
func (e *Environment) rxSlot(link uint64, sc int32) *rxEntry {
	if 2*(e.rxUsed+1) > len(e.rxTab) {
		e.rxGrow()
	}
	ent := rxProbe(e.rxTab, link, sc)
	if !ent.used {
		ent.used, ent.link, ent.sc = true, link, sc
		// block -1 never matches a real coherence block (time is
		// non-negative), so the first lookup always computes.
		ent.block = -1
		e.rxUsed++
	}
	return ent
}

// rxProbe finds the entry holding (link, sc), or the empty slot where
// it would be inserted. The table length is a power of two.
func rxProbe(tab []rxEntry, link uint64, sc int32) *rxEntry {
	mask := uint64(len(tab) - 1)
	h := (link ^ uint64(uint32(sc))*0x9E3779B97F4A7C15) * 0x9E3779B97F4A7C15
	for i := (h >> 32) & mask; ; i = (i + 1) & mask {
		ent := &tab[i]
		if !ent.used || (ent.link == link && ent.sc == sc) {
			return ent
		}
	}
}

// rxGrow doubles the table (or seeds it) and rehashes live entries.
func (e *Environment) rxGrow() {
	n := 2 * len(e.rxTab)
	if n < 64 {
		n = 64
	}
	old := e.rxTab
	e.rxTab = make([]rxEntry, n)
	for i := range old {
		if old[i].used {
			*rxProbe(e.rxTab, old[i].link, old[i].sc) = old[i]
		}
	}
}

// noise returns the per-resource-block thermal noise floor in dBm and
// mW, recomputed only when the environment's noise figure changes.
func (e *Environment) noise() (float64, float64) {
	if !e.noiseSet || e.noiseNF != e.NoiseFigureDB {
		e.noiseNF = e.NoiseFigureDB
		e.noiseDBmC = propagation.NoiseDBm(RBBandwidthHz, e.NoiseFigureDB)
		e.noiseMWC = propagation.DBmToMW(e.noiseDBmC)
		e.noiseSet = true
	}
	return e.noiseDBmC, e.noiseMWC
}

// DownlinkSINR returns the data-resource-element SINR a client sees in
// subchannel sc from its serving cell at time tMS (milliseconds). Only
// interferers actually transmitting *data* in sc contribute: control
// signalling from powered-on neighbours occupies different resource
// elements and is modelled as puncturing (see PuncturedGoodputFactor),
// matching the paper's finding that signalling-only interference leaves
// data SINR intact and costs at most ~20% goodput (Figure 7b).
func (e *Environment) DownlinkSINR(serving *Cell, interferers []*Cell, cl *Client, sc int, tMS int64) float64 {
	_, den := e.DownlinkSINRParts(serving, interferers, cl, sc, tMS)
	// Serving-link dB via the memo's lazy conversion — bit-identical to
	// MWToDBm of the parts' signal, but cached for the rest of the
	// coherence block.
	signal := e.rxPowerDBm(serving, cl.Pos, cl.ID, sc, tMS)
	// The mW denominator repeats for the whole coherence block while
	// the interferer set holds still, so memoize its dB conversion on
	// the serving link's table entry. Probe fresh: the interferer
	// lookups above may have grown the table, moving the entry the
	// signal lookup touched. The entry exists (rxPowerDBm inserted
	// it), and a zero-valued denMW can never match (den includes a
	// strictly positive noise floor), so first use always computes.
	ent := rxProbe(e.rxTab, propagation.LinkID(serving.ID, cl.ID), int32(sc))
	if ent.denMW != den {
		ent.denMW, ent.denDB = den, propagation.MWToDBm(den)
	}
	return signal - ent.denDB
}

// DownlinkSINRParts returns DownlinkSINR's ingredients in the linear
// domain: the serving-cell received power and the interference-plus-
// noise denominator, both in mW per resource block. Feeding them to
// phy.LTECQIFromLinearSINR yields the exact CQI the dB chain computes
// while skipping every log10 — the batch-kernel path CQI reporting
// rides (CQIReporter.ReportLinearInto).
func (e *Environment) DownlinkSINRParts(serving *Cell, interferers []*Cell, cl *Client, sc int, tMS int64) (sigMW, denMW float64) {
	sigMW = e.rxPowerMW(serving, cl.Pos, cl.ID, sc, tMS)
	_, denMW = e.noise()
	for _, ic := range interferers {
		if ic == serving || !ic.TransmitsIn(sc) {
			continue
		}
		denMW += e.rxPowerMW(ic, cl.Pos, cl.ID, sc, tMS)
	}
	return sigMW, denMW
}

// PuncturedGoodputFactor returns the fraction of goodput that survives
// control-channel collisions from powered-on neighbouring cells.
// Reference and control signals occupy ~15% of a cell's resource
// elements regardless of data load; where a neighbour's control REs
// land on the serving cell's data REs with power comparable to or above
// the signal, those REs are lost. The factor is
// 1 - sum_i 0.15 * kill_i, floored at 0.4, where kill_i is a logistic
// in the signal-to-interferer power gap.
func (e *Environment) PuncturedGoodputFactor(serving *Cell, interferers []*Cell, cl *Client, sc int, tMS int64) float64 {
	signal := e.rxPowerDBm(serving, cl.Pos, cl.ID, sc, tMS)
	loss := 0.0
	for _, ic := range interferers {
		if ic == serving || ic.Activity == Off {
			continue
		}
		p := e.rxPowerDBm(ic, cl.Pos, cl.ID, sc, tMS)
		// Probability one punctured RE is unrecoverable: ~1 when the
		// interferer is stronger than the signal, fading out as the
		// signal wins by more than a few dB.
		kill := 1 / (1 + math.Pow(10, (signal-p-3)/10))
		loss += SignallingOnly.DutyFactor() * kill
	}
	f := 1 - loss
	if f < 0.4 {
		f = 0.4
	}
	return f
}

// DownlinkRSSI returns the client's received signal strength from a
// cell over the full carrier (the QXDM-style metric of Figure 7b).
func (e *Environment) DownlinkRSSI(tx *Cell, cl *Client, tMS int64) float64 {
	perRB := e.rxPowerDBm(tx, cl.Pos, cl.ID, 0, tMS)
	return perRB + 10*math.Log10(float64(tx.BW.ResourceBlocks()))
}

// UplinkSINR returns the SINR the serving cell sees from a client that
// concentrates its transmit power in nRBs resource blocks of
// subchannel sc — the OFDMA narrow-allocation advantage of Figure 1c.
func (e *Environment) UplinkSINR(cl *Client, serving *Cell, nRBs, sc int, tMS int64) float64 {
	if nRBs <= 0 {
		panic("lte: uplink needs at least one RB")
	}
	perRB := cl.TxPowerDBm - 10*math.Log10(float64(nRBs))
	gain := serving.Antenna.GainDB(serving.Pos.Bearing(cl.Pos))
	// Link loss is symmetric, so the uplink shares the downlink's
	// (cell, client) cache entry.
	loss := e.cache.LossDB(serving.ID, cl.ID, serving.Pos, cl.Pos)
	fade := e.Fading.GainDB(propagation.LinkID(cl.ID+1<<16, serving.ID), sc, tMS)
	signal := perRB + gain - loss + fade
	noise, _ := e.noise()
	return signal - noise
}
