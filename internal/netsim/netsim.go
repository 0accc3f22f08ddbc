// Package netsim is the system-level simulator behind the paper's
// large-scale evaluation (Section 6.3.4, Figure 9): a fluid, epoch-
// granularity model of many LTE cells sharing one TV channel under
// three management schemes — plain LTE (no interference management),
// CellFi's distributed controller, and the centralized oracle.
//
// Each 1-second interference-management epoch is simulated as a set of
// 100 ms fading blocks. Within an epoch every cell transmits in its
// permitted subchannels whenever it has backlogged clients; client
// rates follow per-subchannel SINR through the LTE CQI tables; and the
// CellFi controllers observe exactly what the paper's sensing gives
// them — PRACH-overheard client counts and CQI-drop interference
// verdicts with the measured 80% detection and 2% false-positive
// rates (Section 6.3.2) — before updating their subchannel sets.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"cellfi/internal/core"
	"cellfi/internal/geo"
	"cellfi/internal/lte"
	"cellfi/internal/netgraph"
	"cellfi/internal/oracle"
	"cellfi/internal/phy"
	"cellfi/internal/propagation"
	"cellfi/internal/shard"
	"cellfi/internal/topo"
	"cellfi/internal/trace"
)

// PackStreakEpochs is how many consecutive clean epochs a lower-index
// subchannel must show before the channel re-use heuristic moves onto
// it (Section 5.3's "contiguous period of time").
const PackStreakEpochs = 3

// Scheme selects the interference-management approach.
type Scheme int

const (
	// SchemeLTE: every cell uses the whole carrier, always.
	SchemeLTE Scheme = iota
	// SchemeCellFi: the paper's distributed controller.
	SchemeCellFi
	// SchemeOracle: centralized allocation on the true graph.
	SchemeOracle
	// SchemeRandomHop: CellFi's sensing and shares, but memoryless
	// uniform re-hopping instead of the exponential-bucket protocol
	// (the ablation baseline for Section 5.3's design).
	SchemeRandomHop
	// SchemeHybrid: the Section 7 extension — centralized
	// coordination among each provider's own cells, distributed
	// CellFi coordination across providers.
	SchemeHybrid
)

var schemeNames = [...]string{
	SchemeLTE:       "lte",
	SchemeCellFi:    "cellfi",
	SchemeOracle:    "oracle",
	SchemeRandomHop: "random-hop",
	SchemeHybrid:    "hybrid",
}

func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemeNames) {
		return "?"
	}
	return schemeNames[s]
}

// ParseScheme is the inverse of Scheme.String.
func ParseScheme(name string) (Scheme, error) {
	for s, n := range schemeNames {
		if n == name {
			return Scheme(s), nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (want one of %s)", name, strings.Join(schemeNames[:], ", "))
}

// Config parametrizes a run.
type Config struct {
	Scheme Scheme
	BW     lte.Bandwidth
	TDD    lte.TDDConfig
	Seed   int64
	// PerfectSensing replaces the injected detectionRate /
	// falsePositiveRate with ground truth (ablation).
	PerfectSensing bool
	// PackingEnabled toggles the channel re-use heuristic (ablation).
	PackingEnabled bool
	// Lambda is the hopping bucket mean.
	Lambda float64
	// InterferenceRadiusM, when positive, truncates every interference
	// scan at the significance radius (see DESIGN.md, "The significance
	// radius"): transmitters farther from a receiver contribute nothing,
	// and the scans that would walk every node — the PRACH census, the
	// conflict graph, the handover pick and the mobile budget refresh —
	// run as uniform-grid queries (neighbors.go). Zero keeps the
	// historical all-pairs scans.
	InterferenceRadiusM float64
	// UseSpatialIndex does nothing: a positive InterferenceRadiusM always
	// resolves neighborhoods through the grid. Kept for bench/imdense.go,
	// which sets it.
	UseSpatialIndex bool
	// Trace, when non-nil, flight-records every cell's interference-
	// management decisions (im-share per epoch, im-hop per holding
	// change), timestamped with the epoch clock (epoch × 1 s). Applies
	// to schemes driven by core.Controller (cellfi, hybrid); the
	// memoryless random hopper is untraced.
	Trace trace.Recorder
}

// Simulation settings no run varies.
const (
	// apPowerDBm / clientPowerDBm are the Section 6.3.4 values.
	apPowerDBm, clientPowerDBm = 30, 20
	// detectionRate / falsePositiveRate inject the measured sensing
	// imperfections; Config.PerfectSensing overrides both (ablation).
	detectionRate, falsePositiveRate = core.MeasuredDetectionRate, core.MeasuredFalsePositiveRate
	// prachFloorRiseDB raises the PRACH detector's effective noise
	// floor above thermal: an AP overhearing *foreign* preambles has
	// no timing advance, no power control and a busy co-channel
	// uplink, so its detection floor sits well above the clean-lab
	// -10 dB figure. 20 dB puts the audibility radius at roughly the
	// interference-significant range (~650 m), which is exactly the
	// paper's argument for why PRACH audibility approximates "my
	// transmissions affect this client".
	prachFloorRiseDB = 20
	// oracleMarginDB: two cells conflict when either lands this many dB
	// above the thermal floor at a client of the other (material SINR
	// damage) — the edge rule of conflictGraph.
	oracleMarginDB = 20
	// numProviders splits cells across operators for SchemeHybrid
	// (cell i belongs to provider i mod numProviders).
	numProviders = 2
	// blocksPerEpoch is the number of 100 ms fading blocks per 1 s epoch.
	blocksPerEpoch = 10
)

// DefaultConfig returns the paper's simulation settings for a scheme.
func DefaultConfig(s Scheme, seed int64) Config {
	return Config{
		Scheme:         s,
		BW:             lte.BW5MHz,
		TDD:            lte.TDDConfig4,
		Seed:           seed,
		PackingEnabled: true,
		Lambda:         core.DefaultLambda,
	}
}

// Client is one mobile user in the simulation.
type Client struct {
	Index int
	Cell  int
	Pos   geo.Point
	// QueuedBits and DeliveredBits track the downlink fluid queue.
	QueuedBits    int64
	DeliveredBits int64
	// Backlogged clients refill automatically each epoch.
	Backlogged bool
}

// Network is one instantiated run.
type Network struct {
	Cfg   Config
	Topo  *topo.Topology
	Cells []geo.Point
	// ClientsOf[i] indexes into Clients.
	Clients   []*Client
	ClientsOf [][]int

	model  *propagation.Model
	fading *propagation.Fading
	rng    *rand.Rand

	// Cached link budget (path loss and shadowing are evaluated once per
	// pair at New and again only for a client that moved; see
	// setLinkBudget): lossDB[i][c] is the link loss between cell i and
	// client c, from which rxDBm and the PRACH census derive their dB
	// figures where they read them. rxMW is the downlink per-RB power
	// in milliwatts for the linear-domain SINR kernel, stored
	// client-major — client c's row is rxMW[c*len(Cells):(c+1)*len(Cells)]
	// — because the kernel walks one client's interferers at a time.
	lossDB [][]float64
	rxMW   []float64
	// Link-budget constants, computed once: the per-RB thermal noise
	// floor (dBm and mW), the AP's per-RB transmit power, and the PRACH
	// detector's effective floor.
	noiseRBDBm, noiseMW     float64
	perRBDBm, prachNoiseDBm float64
	// rateBps[k][cqi] tables lte.SubchannelRateBps for this carrier.
	rateBps [][phy.LTECQICount + 1]float64
	// rows[k][b] is subchannel k's fade row for block b of epoch
	// rowsEpoch; epochRows rebuilds the table when n.epoch has moved.
	rows      [][blocksPerEpoch]propagation.FadeRow
	rowsEpoch int64
	// scratch[w] is worker w's kernel scratch in a shard.Fork pass over
	// cells; worker 0 is the calling goroutine. observe and serve are
	// the two passes' chunk functions, built once in New.
	scratch        []kernelScratch
	observe, serve func(ks *kernelScratch, lo, hi int)

	controllers []core.IM
	// providers maps cell -> operator for SchemeHybrid.
	providers []int
	allowed   [][]int // per cell, current permitted subchannels
	epoch     int64
	// tx[k] lists, in ascending order, the cells emitting data in
	// subchannel k this epoch; active[j] lists cell j's clients with
	// queued data. prevTx / prevActive carry the last epoch's into the
	// next controller update (sensing looks backward); the two pairs
	// swap every Step and reuse their backing arrays.
	tx, prevTx         [][]int32
	active, prevActive [][]int
	// cleanStreak[i][k] counts consecutive epochs cell i's clients all
	// observed subchannel k clean — the "contiguous period of time"
	// the channel re-use heuristic requires (Section 5.3).
	cleanStreak [][]int
	// mobility/mobile/handovers drive the Section 7 roaming extension.
	mobility  *MobilityConfig
	mobile    []mobileState
	handovers int

	// Interference neighborhood state (see neighbors.go). With
	// InterferenceRadiusM > 0, truncate is set and the grids and the
	// dense active-client flags exist; without, allCells lists every
	// cell and activeAll every client with queued data, ascending.
	truncate             bool
	sigRadius, sigR2     float64
	cellGrid, clientGrid *geo.Grid
	cellScratch          []int32
	activeFlag           []bool
	allCells, activeAll  []int32

	// Per-step scratch for updateControllers, reused across cells and
	// epochs: the observe pass's per-cell PRACH census and CQI pairs
	// (cell i's pairs are obs[obsOff[i]:obsOff[i+1]], subchannel-major
	// over prevActive[i]), the controller input (maps cleared between
	// cells) and the per-subchannel clean/held flags. servedBits backs
	// EpochResult.
	census            []int
	obs               []cqiPair
	obsOff            []int
	imIn              core.EpochInput
	cleanForAll, held []bool
	servedBits        []int64

	// Hops accumulates controller hops for convergence reporting.
	Hops int
}

// New builds a network over a generated topology.
func New(t *topo.Topology, cfg Config) *Network {
	n := &Network{
		Cfg:       cfg,
		Topo:      t,
		Cells:     t.APs,
		model:     propagation.DefaultUrban(cfg.Seed),
		fading:    propagation.NewFading(cfg.Seed + 1),
		rng:       rand.New(rand.NewSource(cfg.Seed + 2)),
		rowsEpoch: -1,
		scratch:   make([]kernelScratch, 1),
	}
	n.observe = n.overCells((*Network).observeCell)
	n.serve = n.overCells((*Network).serveCell)
	n.ClientsOf = make([][]int, len(t.APs))
	for i, pts := range t.Clients {
		for _, p := range pts {
			c := &Client{Index: len(n.Clients), Cell: i, Pos: p}
			n.Clients = append(n.Clients, c)
			n.ClientsOf[i] = append(n.ClientsOf[i], c.Index)
		}
	}
	n.noiseRBDBm = propagation.NoiseDBm(lte.RBBandwidthHz, 7)
	n.noiseMW = propagation.DBmToMW(n.noiseRBDBm)
	n.perRBDBm = apPowerDBm - 10*math.Log10(float64(cfg.BW.ResourceBlocks()))
	// PRACH occupies six RBs (1.08 MHz); the effective floor includes
	// the co-channel uplink interference rise.
	n.prachNoiseDBm = propagation.NoiseDBm(6*lte.RBBandwidthHz, 7) + prachFloorRiseDB
	n.precomputeLinkBudget()
	n.setupNeighborhoods()
	s := cfg.BW.Subchannels()
	n.rateBps = make([][phy.LTECQICount + 1]float64, s)
	for k := range n.rateBps {
		for cqi := range n.rateBps[k] {
			n.rateBps[k][cqi] = lte.SubchannelRateBps(cfg.BW, cfg.TDD, k, cqi)
		}
	}
	n.rows = make([][blocksPerEpoch]propagation.FadeRow, s)
	n.tx, n.prevTx = make([][]int32, s), make([][]int32, s)
	n.active, n.prevActive = make([][]int, len(n.Cells)), make([][]int, len(n.Cells))
	n.imIn = core.EpochInput{
		BadFrac:       map[int]float64{},
		Utility:       map[int]float64{},
		SensedBusy:    map[int]bool{},
		PackCandidate: map[int]int{},
	}
	n.census, n.obsOff = make([]int, len(n.Cells)), make([]int, len(n.Cells)+1)
	n.cleanForAll, n.held = make([]bool, s), make([]bool, s)
	n.servedBits = make([]int64, len(n.Clients))
	n.allowed = make([][]int, len(n.Cells))
	n.cleanStreak = make([][]int, len(n.Cells))
	for i := range n.cleanStreak {
		n.cleanStreak[i] = make([]int, s)
	}
	switch cfg.Scheme {
	case SchemeLTE:
		all := make([]int, s)
		for k := range all {
			all[k] = k
		}
		for i := range n.allowed {
			n.allowed[i] = all
		}
	case SchemeCellFi, SchemeHybrid:
		// Hybrid runs the same per-cell distributed controllers as
		// CellFi; its provider layer deconflicts on top each epoch.
		if cfg.Scheme == SchemeHybrid {
			n.providers = make([]int, len(n.Cells))
			for i := range n.providers {
				n.providers[i] = i % numProviders
			}
		}
		n.controllers = make([]core.IM, len(n.Cells))
		for i := range n.controllers {
			ctl := core.NewController(s, rand.New(rand.NewSource(cfg.Seed+100+int64(i))))
			ctl.PackingEnabled = cfg.PackingEnabled
			if cfg.Lambda > 0 {
				ctl.Lambda = cfg.Lambda
			}
			if cfg.Trace != nil {
				ctl.Trace, ctl.TraceAP = cfg.Trace, int32(i)
			}
			n.controllers[i] = ctl
			n.allowed[i] = nil // acquired during the first epoch
		}
	case SchemeRandomHop:
		n.controllers = make([]core.IM, len(n.Cells))
		for i := range n.controllers {
			n.controllers[i] = core.NewRandomHopper(s, rand.New(rand.NewSource(cfg.Seed+100+int64(i))))
			n.allowed[i] = nil
		}
	case SchemeOracle:
		// Computed per epoch from the active-client graph.
	}
	return n
}

// Close does nothing: a network owns no goroutines or handles. Kept for
// bench/imdense.go, which calls it.
func (n *Network) Close() {}

func (n *Network) precomputeLinkBudget() {
	n.lossDB = make([][]float64, len(n.Cells))
	n.rxMW = make([]float64, len(n.Clients)*len(n.Cells))
	for i := range n.Cells {
		n.lossDB[i] = make([]float64, len(n.Clients))
		for c := range n.Clients {
			n.setLinkBudget(i, c)
		}
	}
}

// setLinkBudget computes the (cell i, client c) link loss at the
// client's current position and writes both cached forms — the loss and
// the mW entry the SINR kernel reads — so a refresh can never leave them
// disagreeing.
func (n *Network) setLinkBudget(i, c int) {
	n.lossDB[i][c] = n.model.LinkLossDB(n.Cells[i], n.Clients[c].Pos)
	n.rxMW[c*len(n.Cells)+i] = propagation.DBmToMW(n.rxDBm(i, c))
}

// rxDBm is the per-RB power in dBm client c receives from cell i,
// before fading (threshold scans, handover): omnidirectional cells with
// 6 dBi gain both ways.
func (n *Network) rxDBm(i, c int) float64 {
	return n.perRBDBm + 6 - n.lossDB[i][c]
}

// LinkCacheStats reports zero counters: the dense budget tables above
// are the only cache (every setLinkBudget call is the first for its
// pair or follows a move, so a propagation.LinkCache in front of it
// could not hit). Kept for bench/imdense.go, which reads it for
// propagation.linkcache_hit_ratio.
func (n *Network) LinkCacheStats() propagation.CacheStats {
	return propagation.CacheStats{}
}

// Backlog marks every client as infinitely backlogged.
func (n *Network) Backlog() {
	for _, c := range n.Clients {
		c.Backlogged = true
		c.QueuedBits = 1 << 40
	}
}

// AddBits enqueues downlink traffic for a client (dynamic workloads).
func (n *Network) AddBits(clientIndex int, bits int64) {
	n.Clients[clientIndex].QueuedBits += bits
}

// Allowed returns the subchannels cell i may currently use.
func (n *Network) Allowed(i int) []int { return n.allowed[i] }

// appendActive appends the clients of cell i with queued data to dst.
func (n *Network) appendActive(dst []int, i int) []int {
	for _, c := range n.ClientsOf[i] {
		if n.Clients[c].QueuedBits > 0 {
			dst = append(dst, c)
		}
	}
	return dst
}

// sinrParts computes the downlink SINR ingredients of client c from its
// cell in subchannel k during fading block b, given an epoch's
// per-subchannel transmitter lists: the received signal and the
// interference-plus-noise sum, both in mW per RB. Everything stays in
// the linear domain — one fused fade-and-add pass over the interferers
// (propagation.FadeRow.AddSum), no per-interferer pow — and the pair
// feeds phy.LTECQIFromLinearSINR directly on the CQI paths; sig over
// noiseMW alone is the interference-free reference.
//
// The denominator starts at the noise floor and adds the cells that
// transmit in k in ascending cell order. That order is the determinism
// contract: float addition is not associative, so a truncated run
// agrees to the bit with the reference kernel because both add the same
// terms in the same order — truncation first filters the one ascending
// list through the cellNearPos predicate (interferers), and the kernel
// walks what is left.
func (n *Network) sinrParts(ks *kernelScratch, c, k int, b int64, tx [][]int32) (sig, den float64) {
	i := n.Clients[c].Cell
	rx := n.rxMW[c*len(n.Cells) : (c+1)*len(n.Cells)]
	row := n.epochRows(k)[b]
	sig = rx[i] * row.Gain(propagation.LinkID(i, c))
	return sig, row.AddSum(n.noiseMW, n.interferers(ks, c, tx[k]), c, rx, int32(i))
}

// sinrBlocks is sinrParts for every fading block of the epoch at once:
// (sig[b], den[b]) equals sinrParts(ks, c, k, b, tx) to the bit. The
// interferer list is walked once for all blocks (propagation.SumRows).
// The slices are ks's, overwritten by its next call.
func (n *Network) sinrBlocks(ks *kernelScratch, c, k int, tx [][]int32) (sig, den []float64) {
	i := n.Clients[c].Cell
	rx := n.rxMW[c*len(n.Cells) : (c+1)*len(n.Cells)]
	rows := n.epochRows(k)
	sig, den = ks.blockSig[:], ks.blockDen[:]
	serving := propagation.LinkID(i, c)
	for b, row := range rows {
		sig[b] = rx[i] * row.Gain(serving)
		den[b] = n.noiseMW
	}
	propagation.SumRows(rows[:], n.interferers(ks, c, tx[k]), c, rx, int32(i), den)
	return sig, den
}

// epochRows returns subchannel k's fade rows for the blocks of the
// current epoch, rebuilding the whole table first if n.epoch has moved
// since it was last built. A forked pass over cells only reads the
// table, so the code that forks builds it first.
func (n *Network) epochRows(k int) *[blocksPerEpoch]propagation.FadeRow {
	if n.rowsEpoch != n.epoch {
		for kk := range n.rows {
			for b := range n.rows[kk] {
				n.rows[kk][b] = n.fading.Row(kk, n.epoch*1000+int64(b)*100)
			}
		}
		n.rowsEpoch = n.epoch
	}
	return &n.rows[k]
}

// interferers returns the transmitters in cells that can reach client
// c: the list itself, or with truncation on, the cells the cellNearPos
// predicate admits, in list order, in ks's reused nearTx.
func (n *Network) interferers(ks *kernelScratch, c int, cells []int32) []int32 {
	if !n.truncate {
		return cells
	}
	pos := n.Clients[c].Pos
	near := slices.Grow(ks.nearTx[:0], len(cells))[:len(cells)]
	m := 0
	for _, j := range cells {
		// Store every cell, keep it by advancing m: no branch on the
		// distance, which varies too irregularly to predict.
		near[m] = j
		if n.cellNearPos(int(j), pos) {
			m++
		}
	}
	ks.nearTx = near
	return near[:m]
}

// EpochResult summarizes one stepped epoch.
type EpochResult struct {
	// ServedBits per client this epoch. The slice is the network's own
	// buffer, overwritten by the next Step: copy it to keep it.
	ServedBits []int64
}

// Step advances one 1-second epoch and returns per-client service.
func (n *Network) Step() EpochResult {
	nCells := len(n.Cells)

	// Refill backlogged clients.
	for _, c := range n.Clients {
		if c.Backlogged && c.QueuedBits < 1<<30 {
			c.QueuedBits = 1 << 40
		}
	}

	if n.mobility != nil {
		n.stepMobility()
	}

	// Active sets for this epoch.
	active := n.active
	for j := 0; j < nCells; j++ {
		active[j] = n.appendActive(active[j][:0], j)
	}
	n.markActive()

	// Interference management runs at the start of the epoch: shares
	// follow the clients active now, observations come from the
	// previous epoch's radio state.
	if n.Cfg.Trace != nil {
		// Stamp IM records with the epoch clock (1 s per epoch).
		nowNS := n.epoch * int64(1e9)
		for _, ctl := range n.controllers {
			if c, ok := ctl.(*core.Controller); ok {
				c.TraceNowNS = nowNS
			}
		}
	}
	// The epoch's fade rows, built before the forked passes read them.
	n.epochRows(0)
	switch n.Cfg.Scheme {
	case SchemeOracle:
		n.allowed = n.oracleAllocate()
	case SchemeCellFi, SchemeRandomHop:
		n.updateControllers()
	case SchemeHybrid:
		n.updateControllers()
		n.deconflictProviders()
	}

	// Transmitter lists for this epoch: cell j emits data in k iff k is
	// allowed and it has at least one active client. Cells are visited
	// in ascending order, which is what sinrParts' float sum relies on.
	tx := n.tx
	for k := range tx {
		tx[k] = tx[k][:0]
	}
	for j := 0; j < nCells; j++ {
		if len(active[j]) == 0 {
			continue
		}
		for _, k := range n.allowed[j] {
			tx[k] = append(tx[k], int32(j))
		}
	}

	// Fluid service: each allowed subchannel's airtime is shared
	// equally among the cell's active clients; rates average over
	// fading blocks. Cells are served in parallel: each client belongs
	// to one cell and writes only its own queue and servedBits entry.
	clear(n.servedBits)
	shard.Fork(&n.scratch, len(n.Cells), cellGrain, n.serve)

	n.tx, n.prevTx = n.prevTx, n.tx
	n.active, n.prevActive = n.prevActive, n.active
	n.epoch++
	return EpochResult{ServedBits: n.servedBits}
}

// serveCell delivers one epoch of fluid service to cell j's active
// clients.
func (n *Network) serveCell(ks *kernelScratch, j int) {
	active := n.active[j]
	if len(active) == 0 {
		return
	}
	nAct := float64(len(active))
	for _, c := range active {
		var rate float64 // bits per second for this client
		for _, k := range n.allowed[j] {
			sig, den := n.sinrBlocks(ks, c, k, n.tx)
			var scRate float64
			for b := range sig {
				scRate += n.rateBps[k][phy.LTECQIFromLinearSINR(sig[b], den[b])]
			}
			rate += scRate / blocksPerEpoch
		}
		rate /= nAct
		served := int64(rate) // 1-second epoch
		cl := n.Clients[c]
		if served > cl.QueuedBits {
			served = cl.QueuedBits
		}
		cl.QueuedBits -= served
		cl.DeliveredBits += served
		n.servedBits[c] = served
	}
}

// detect applies the measured sensing error model to a ground-truth
// verdict.
func (n *Network) detect(truth bool) bool {
	if n.Cfg.PerfectSensing {
		return truth
	}
	if truth {
		return n.rng.Float64() < detectionRate
	}
	return n.rng.Float64() < falsePositiveRate
}

// updateControllers builds each cell's EpochInput — the target share
// from the clients active *now* (so a cell reacts before serving) and
// interference observations from the previous epoch's transmissions —
// and steps its controller. Observations are evaluated on the *new*
// epoch's clock (its last fading block) against the *previous* epoch's
// transmitter lists: the epoch counter has not advanced yet when the
// update runs.
//
// It runs in two passes. Observing is pure per cell and runs in
// parallel (observeCell). Deciding draws the sensing errors from the
// shared n.rng and steps the controllers, so it runs serially in
// ascending cell order over the observed CQI pairs, exactly as a
// single pass would.
func (n *Network) updateControllers() {
	s := n.Cfg.BW.Subchannels()
	nowActive, prevActive := n.active, n.prevActive
	off := n.obsOff
	for i := range n.Cells {
		off[i+1] = off[i] + s*len(prevActive[i])
	}
	n.obs = slices.Grow(n.obs[:0], off[len(n.Cells)])[:off[len(n.Cells)]]
	shard.Fork(&n.scratch, len(n.Cells), cellGrain, n.observe)

	in, cleanForAll, held := n.imIn, n.cleanForAll, n.held
	for i, ctl := range n.controllers {
		// Shares count *active* clients: PDCCH-order RACH solicits
		// preambles every second and sightings expire after one
		// second (Section 5.1), so the census tracks current demand.
		own := len(nowActive[i])
		in.TargetShare = core.Share(s, own, n.census[i])
		clear(in.BadFrac)
		clear(in.Utility)
		clear(in.SensedBusy)
		clear(in.PackCandidate)

		if len(prevActive[i]) == 0 {
			// No observations from the previous epoch (or no previous
			// epoch: prevActive starts empty).
			n.allowed[i] = ctl.Epoch(in)
			continue
		}

		nAct := float64(len(prevActive[i]))
		// n.allowed[i] is the held set the last update left (every path
		// that changes a controller's holdings refreshes it).
		heldNow := n.allowed[i]
		for k := 0; k < s; k++ {
			cleanForAll[k] = true
			held[k] = false
		}
		for _, k := range heldNow {
			held[k] = true
		}
		// Per-subchannel observations from this cell's clients' CQI
		// reports (LTE clients sense all subchannels, Section 5). One
		// observed CQI pair per (client, subchannel) yields the CQI-drop
		// ground truth and the utility.
		obs := n.obs[off[i]:off[i+1]]
		for k := 0; k < s; k++ {
			anyBad := false
			badFrac := 0.0
			util := 0.0
			for _, p := range obs[k*len(prevActive[i]) : (k+1)*len(prevActive[i])] {
				withI := int(p.withI)
				if n.detect(cqiDropped(withI, int(p.clean))) {
					anyBad = true
					badFrac += 1 / nAct
					cleanForAll[k] = false
				}
				util += n.rateBps[k][withI] / nAct
			}
			in.Utility[k] = util
			if held[k] {
				if badFrac > 0 {
					in.BadFrac[k] = badFrac
				}
			} else if anyBad {
				in.SensedBusy[k] = true
			}
		}
		// Maintain clean streaks; pack candidates need the target
		// clean for PackStreakEpochs consecutive epochs (the paper's
		// "contiguous period of time"), which keeps the heuristic
		// from thrashing on momentary quiet.
		for k := 0; k < s; k++ {
			if cleanForAll[k] {
				n.cleanStreak[i][k]++
			} else {
				n.cleanStreak[i][k] = 0
			}
		}
		for _, k := range heldNow {
			for j := 0; j < k; j++ {
				if !held[j] && !in.SensedBusy[j] && n.cleanStreak[i][j] >= PackStreakEpochs {
					in.PackCandidate[k] = j
					break
				}
			}
		}
		before := ctl.HopCount()
		n.allowed[i] = ctl.Epoch(in)
		n.Hops += ctl.HopCount() - before
	}
}

// cqiPair is one client's CQI report for one subchannel: with the
// previous epoch's interference and without it. CQIs run 0..15.
type cqiPair struct{ withI, clean uint8 }

// observeCell is cell i's sensing for the coming controller update:
// its PRACH census and, for each subchannel k and each client of
// prevActive[i], the CQI pair at the epoch's last fading block against
// the previous epoch's transmitters.
func (n *Network) observeCell(ks *kernelScratch, i int) {
	const lastBlock = blocksPerEpoch - 1
	n.census[i] = n.prachCensus(ks, i)
	act := n.prevActive[i]
	obs := n.obs[n.obsOff[i]:n.obsOff[i+1]]
	for k := range n.Cfg.BW.Subchannels() {
		for ci, c := range act {
			sig, den := n.sinrParts(ks, c, k, lastBlock, n.prevTx)
			obs[k*len(act)+ci] = cqiPair{
				withI: uint8(phy.LTECQIFromLinearSINR(sig, den)),
				clean: uint8(phy.LTECQIFromLinearSINR(sig, n.noiseMW)),
			}
		}
	}
}

// prachCensus counts the active clients near cell i (activeNear) whose
// PRACH it hears at or above the detection floor (-10 dB).
func (n *Network) prachCensus(ks *kernelScratch, i int) int {
	loss, noise := n.lossDB[i], n.prachNoiseDBm
	sensed := 0
	for _, c := range n.activeNear(ks, n.Cells[i]) {
		// Counted without a branch on the SNR, which varies client to
		// client too irregularly to predict.
		audible := 0
		if clientPowerDBm+6-loss[c]-noise >= lte.PRACHDetectFloorDB {
			audible = 1
		}
		sensed += audible
	}
	return sensed
}

// cqiDropped is the ground truth behind a CQI-drop verdict: the
// client's CQI with interference sits well below its interference-free
// reference (the 60% CQI drop of Section 6.3.2 maps to roughly a
// CQI-level gap; we use the same fraction on CQI directly).
func cqiDropped(withI, clean int) bool {
	return clean != 0 && float64(withI) < core.DetectDropFraction*float64(clean)
}

// conflictGraph returns the true conflict relation over all cells, the
// one the oracle allocates on and hybrid's provider layer deconflicts
// by: cells i and j conflict when either lands oracleMarginDB above the
// noise floor at any client of the other (it would visibly degrade SINR
// there). AddEdge is symmetric and idempotent, so only the edge set
// matters, not the visit order.
func (n *Network) conflictGraph() *netgraph.Graph {
	g := netgraph.New(len(n.Cells))
	threshold := n.noiseRBDBm + oracleMarginDB
	for i, clients := range n.ClientsOf {
		for _, c := range clients {
			for _, j := range n.cellsNear(n.Clients[c].Pos) {
				if int(j) != i && n.rxDBm(int(j), c) >= threshold {
					g.AddEdge(i, int(j))
				}
			}
		}
	}
	return g
}

// oracleAllocate hands the conflict graph, with each cell's demand, to
// the centralized allocator.
func (n *Network) oracleAllocate() [][]int {
	nCells := len(n.Cells)
	g := n.conflictGraph()
	s := n.Cfg.BW.Subchannels()
	for i := 0; i < nCells; i++ {
		own := len(n.active[i])
		if own == 0 {
			g.Demand[i] = 0
			continue
		}
		// The oracle knows the true active-client count in i's
		// neighbourhood.
		contenders := own
		for _, j := range g.Neighbors(i) {
			contenders += len(n.active[j])
		}
		g.Demand[i] = core.Share(s, own, contenders)
	}
	assign, _ := oracle.Allocate(g, s)
	out := make([][]int, nCells)
	for i := range out {
		out[i] = assign[i]
	}
	return out
}

// ThroughputsMbps returns per-client average throughput over the run so
// far (epochs so far).
func (n *Network) ThroughputsMbps() []float64 {
	out := make([]float64, len(n.Clients))
	if n.epoch == 0 {
		return out
	}
	for i, c := range n.Clients {
		out[i] = float64(c.DeliveredBits) / float64(n.epoch) / 1e6
	}
	return out
}

// Run steps the given number of epochs with backlogged traffic and
// returns final per-client throughputs in Mbps.
func (n *Network) Run(epochs int) []float64 {
	n.Backlog()
	for e := 0; e < epochs; e++ {
		n.Step()
	}
	return n.ThroughputsMbps()
}
