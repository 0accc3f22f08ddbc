package wifi

import (
	"fmt"
	"math/rand"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/phy"
	"cellfi/internal/propagation"
	"cellfi/internal/sim"
	"cellfi/internal/trace"
)

// frameCode maps an on-air frame kind to its trace encoding.
func frameCode(kind string) int64 {
	switch kind {
	case "rts":
		return trace.WifiFrameRTS
	case "cts":
		return trace.WifiFrameCTS
	case "data":
		return trace.WifiFrameData
	default:
		return trace.WifiFrameAck
	}
}

// Network is one Wi-Fi collision domain: a set of APs and their
// clients sharing a channel under CSMA/CA. All nodes hear each other
// through the propagation model; carrier sensing, NAV, collisions,
// hidden and exposed terminals all follow from received powers.
//
// The per-slot and per-frame paths are allocation-free in steady
// state: transmissions come from a pool with their end-of-frame
// handler bound once, overlap tracking uses reusable slices instead of
// per-frame maps, exchange continuations are functions bound per AP at
// registration, and queue accounting lives in per-client fields.
type Network struct {
	Params Params
	eng    *sim.Engine
	model  *propagation.Model
	// links is the static link budget of every directed (tx, rx) node
	// pair, row-major by dense registration index:
	// links[tx.idx*stride+rx.idx]. Carrier sensing evaluates every
	// active transmission at every contending node on every slot tick,
	// all over a topology that never moves, so the CSMA inner loop is
	// an indexed load. Entries fill on first use; the first lookup after
	// a node registers re-strides the table, copying the filled rows
	// across.
	links  []linkBudget
	stride int
	rng    *rand.Rand
	nodes  []*Node
	aps    []*Node
	active []*transmission
	// txPool recycles transmission records. A record is pushed back
	// when its frame leaves the air; the decode continuation that
	// fires at the same instant may still read it — nothing can take
	// it from the pool before that continuation runs, because no other
	// event can be interleaved between the two (they are scheduled
	// back to back at the same timestamp).
	txPool []*transmission

	// noise floor memo, guarded by the parameters it was built from.
	noiseSet   bool
	noiseWidth float64
	noiseNF    float64
	noiseDBmC  float64
	noiseMWC   float64

	// Carrier-sense and energy-detect threshold memos in mW, for the
	// linear busyAt scan; each self-validating against the dBm param it
	// was derived from.
	csMWC, csForDBm float64
	edMWC, edForDBm float64

	// Drops counts aggregates abandoned after the retry limit.
	Drops int
	// stats accumulates MAC-level counters.
	stats MACStats
}

// MACStats summarizes a run's MAC behaviour — the quantities behind
// the paper's "Wi-Fi overheads severely limit its efficiency on long
// range" argument.
type MACStats struct {
	// TXOPs counts completed data exchanges.
	TXOPs int
	// Failures counts failed attempts (RTS lost, data undecoded,
	// out-of-range picks).
	Failures int
	// DataAirtime and ControlAirtime split time on the air between
	// payload frames and RTS/CTS/ACK + preambles.
	DataAirtime, ControlAirtime time.Duration
	// DeliveredBits across all clients.
	DeliveredBits int64
}

// CollisionRate returns failures over total attempts.
func (s MACStats) CollisionRate() float64 {
	total := s.TXOPs + s.Failures
	if total == 0 {
		return 0
	}
	return float64(s.Failures) / float64(total)
}

// Stats returns a copy of the accumulated MAC counters.
func (n *Network) Stats() MACStats { return n.stats }

// NewNetwork creates an empty network on the given engine and
// propagation model.
func NewNetwork(eng *sim.Engine, model *propagation.Model, params Params) *Network {
	return &Network{
		Params: params,
		eng:    eng,
		model:  model,
		rng:    eng.NewStream("wifi:" + params.Name),
	}
}

// Node is an AP or a client station.
type Node struct {
	ID         int
	Pos        geo.Point
	TxPowerDBm float64

	// txMW memoizes DBmToMW(TxPowerDBm) for the linear interference
	// sums, self-validating against the dBm it was computed from (the
	// field is public and may be reassigned mid-run).
	txMW, txMWFor float64

	net *Network
	// idx is the node's dense registration index, its row and column in
	// the link table (caller-chosen IDs may collide across APs and
	// stations).
	idx  int
	isAP bool
	// AP-side state.
	clients []*Node
	nextCli int
	// Station-side queue accounting, owned by the serving AP: the
	// AP's backlog toward this client and the bits delivered to it.
	// Plain fields replace the AP's former per-ID maps so the MAC hot
	// path never hashes.
	qBits, dBits int64

	// Contention state.
	contending bool
	inTX       bool
	backoff    int
	cw         int
	retries    int
	navUntil   sim.Time
	slotEv     sim.Event
	deferEv    sim.Event

	// Pre-bound event handlers (allocated once at registration so the
	// per-slot and per-exchange paths never allocate closures).
	rescheduleFn func()
	slotTickFn   func()
	afterRTSFn   func()
	sendCTSFn    func()
	afterCTSFn   func()
	sendDataFn   func()
	afterDataFn  func()
	sendAckFn    func()
	afterAckFn   func()

	// In-flight exchange state (one TXOP at a time per AP).
	exClient  *Node
	exMCS     phy.MCS
	exPayload int // bytes
	exDataDur time.Duration
	exEnd     sim.Time
	exTX      *transmission
}

// AddAP registers an access point.
func (n *Network) AddAP(id int, pos geo.Point, txPowerDBm float64) *Node {
	ap := &Node{
		ID: id, Pos: pos, TxPowerDBm: txPowerDBm, net: n, isAP: true,
		idx: len(n.nodes),
		cw:  n.Params.CWMin,
	}
	ap.rescheduleFn = ap.reschedule
	ap.slotTickFn = ap.slotTick
	ap.afterRTSFn = ap.afterRTS
	ap.sendCTSFn = ap.sendCTS
	ap.afterCTSFn = ap.afterCTS
	ap.sendDataFn = ap.sendData
	ap.afterDataFn = ap.afterData
	ap.sendAckFn = ap.sendAck
	ap.afterAckFn = ap.afterAck
	n.nodes = append(n.nodes, ap)
	n.aps = append(n.aps, ap)
	return ap
}

// AddClient attaches a client station to an AP.
func (n *Network) AddClient(id int, pos geo.Point, txPowerDBm float64, ap *Node) *Node {
	c := &Node{ID: id, Pos: pos, TxPowerDBm: txPowerDBm, net: n, idx: len(n.nodes)}
	n.nodes = append(n.nodes, c)
	ap.clients = append(ap.clients, c)
	return c
}

// APs returns the registered access points.
func (n *Network) APs() []*Node { return n.aps }

// Clients returns an AP's attached stations.
func (ap *Node) Clients() []*Node { return ap.clients }

// Enqueue adds downlink bits for a client and wakes the AP's MAC.
func (ap *Node) Enqueue(client *Node, bits int64) {
	if !ap.isAP {
		panic("wifi: Enqueue on non-AP node")
	}
	client.qBits += bits
	ap.tryStart()
}

// QueuedBits returns an AP's backlog toward one client.
func (ap *Node) QueuedBits(client *Node) int64 { return client.qBits }

// DeliveredBits returns the bits successfully delivered to a client.
func (ap *Node) DeliveredBits(client *Node) int64 { return client.dBits }

// linkBudget is one directed pair's static link budget: the exact
// float64 Model.LinkLossDB returned, and DBmToMW(-lossDB), filled on the
// pair's first linear query so loss-only pairs never pay the pow.
type linkBudget struct {
	lossDB, gainLin  float64
	lossSet, gainSet bool
}

// link returns the (tx, rx) table entry with its loss filled,
// re-striding first if a node registered since the last lookup.
func (n *Network) link(tx, rx *Node) *linkBudget {
	if n.stride != len(n.nodes) {
		n.restride()
	}
	l := &n.links[tx.idx*n.stride+rx.idx]
	if !l.lossSet {
		l.lossDB, l.lossSet = n.model.LinkLossDB(tx.Pos, rx.Pos), true
	}
	return l
}

// restride sizes the table for every registered node, copying each
// filled row to its offset under the new stride.
func (n *Network) restride() {
	m := len(n.nodes)
	grown := make([]linkBudget, m*m)
	for i := 0; i < n.stride; i++ {
		copy(grown[i*m:i*m+n.stride], n.links[i*n.stride:(i+1)*n.stride])
	}
	n.links, n.stride = grown, m
}

// rxPowerDBm is the power node rx sees from node tx, through the link
// table (wifi topologies are static for a run).
func (n *Network) rxPowerDBm(tx, rx *Node) float64 {
	return tx.TxPowerDBm - n.link(tx, rx).lossDB
}

// rxPowerMW is rxPowerDBm in milliwatts, computed entirely in the
// linear domain: the node's memoized transmit power times the pair's
// memoized linear path gain. Interference sums use it so the per-term
// dBm-to-mW pow disappears from the carrier-sense and decode paths.
func (n *Network) rxPowerMW(tx, rx *Node) float64 {
	if tx.txMW == 0 || tx.txMWFor != tx.TxPowerDBm {
		tx.txMW, tx.txMWFor = propagation.DBmToMW(tx.TxPowerDBm), tx.TxPowerDBm
	}
	l := n.link(tx, rx)
	if !l.gainSet {
		l.gainLin, l.gainSet = propagation.DBmToMW(-l.lossDB), true // 10^(-loss/10)
	}
	return tx.txMW * l.gainLin
}

// transmission is one frame in the air. interferers accumulates every
// node whose transmission overlapped this frame at any point, so the
// decode check at frame end cannot miss a short mid-frame collision.
// Records are pooled; endFn is the end-of-frame handler, bound once
// when the record is first created.
type transmission struct {
	net         *Network
	from        *Node
	start, end  sim.Time
	kind        string // "rts", "cts", "data", "ack"
	interferers []*Node
	endFn       func()
}

// addInterferer records an overlapping transmitter exactly once (the
// slice replaces a per-frame map; insertion order makes the decode
// check's interference sum deterministic, which the old map iteration
// was not).
func (t *transmission) addInterferer(node *Node) {
	for _, x := range t.interferers {
		if x == node {
			return
		}
	}
	t.interferers = append(t.interferers, node)
}

// finish takes the frame off the air. The record goes straight back to
// the pool — see the txPool comment for why the same-instant decode
// continuation can still read it safely.
func (t *transmission) finish() {
	n := t.net
	for i, a := range n.active {
		if a == t {
			n.active = append(n.active[:i], n.active[i+1:]...)
			break
		}
	}
	n.txPool = append(n.txPool, t)
	n.notifyMediumChange()
}

// takeTX pops a pooled transmission record (or makes one), resetting
// its per-frame state.
func (n *Network) takeTX() *transmission {
	if len(n.txPool) > 0 {
		t := n.txPool[len(n.txPool)-1]
		n.txPool = n.txPool[:len(n.txPool)-1]
		t.interferers = t.interferers[:0]
		return t
	}
	t := &transmission{net: n}
	t.endFn = t.finish
	return t
}

// noise returns the channel noise floor in dBm and mW, recomputed only
// when the channel width or noise figure changes.
func (n *Network) noise() (float64, float64) {
	if !n.noiseSet || n.noiseWidth != n.Params.ChannelWidthHz || n.noiseNF != n.Params.NoiseFigureDB {
		n.noiseWidth = n.Params.ChannelWidthHz
		n.noiseNF = n.Params.NoiseFigureDB
		n.noiseDBmC = propagation.NoiseDBm(n.Params.ChannelWidthHz, n.Params.NoiseFigureDB)
		n.noiseMWC = propagation.DBmToMW(n.noiseDBmC)
		n.noiseSet = true
	}
	return n.noiseDBmC, n.noiseMWC
}

func (n *Network) noiseDBm() float64 {
	dbm, _ := n.noise()
	return dbm
}

// thresholdsMW returns the carrier-sense and energy-detect thresholds
// in mW, recomputed only when their dBm parameters change. The
// energy-detect one is the exact preimage boundary phy.MinRatioForDB
// finds, so den >= edMW decides what MWToDBm(den) >= EnergyDetectDBm
// would for every den. The carrier-sense one is DBmToMW(CSThresholdDBm),
// a pow that can land ulps off its boundary (DBmToMW(-62) sits 9 ulps
// above -62 dBm's), so it is not bit for bit canHear's dBm compare.
func (n *Network) thresholdsMW() (csMW, edMW float64) {
	if n.csMWC == 0 || n.csForDBm != n.Params.CSThresholdDBm {
		n.csMWC, n.csForDBm = propagation.DBmToMW(n.Params.CSThresholdDBm), n.Params.CSThresholdDBm
	}
	if n.edMWC == 0 || n.edForDBm != n.Params.EnergyDetectDBm {
		n.edMWC, n.edForDBm = phy.MinRatioForDB(n.Params.EnergyDetectDBm), n.Params.EnergyDetectDBm
	}
	return n.csMWC, n.edMWC
}

// busyAt reports whether node sees the medium busy: an unexpired NAV,
// any single frame above the preamble-detection sensitivity, or raw
// aggregate energy above the (much higher) energy-detect threshold.
// The scan runs in mW, with no pow or log per frame.
func (n *Network) busyAt(node *Node) bool {
	now := n.eng.Now()
	if now < node.navUntil {
		return true
	}
	csMW, edMW := n.thresholdsMW()
	den := 0.0
	for _, t := range n.active {
		if t.from == node {
			return true // transmitting counts as busy
		}
		p := n.rxPowerMW(t.from, node)
		if p >= csMW {
			return true
		}
		den += p
	}
	return den >= edMW
}

// sinrOf returns the SINR of transmission t at receiver rx, counting
// every transmission that overlapped t (fully, as CSMA collisions
// typically do) as interference. Interferers are summed in insertion
// order — deterministic by construction.
func (n *Network) sinrOf(t *transmission, rx *Node) float64 {
	signal := n.rxPowerDBm(t.from, rx)
	_, den := n.noise()
	for _, from := range t.interferers {
		if from == rx {
			continue
		}
		den += n.rxPowerMW(from, rx)
	}
	return signal - propagation.MWToDBm(den)
}

// beginTX registers a frame in the air, notifies every node (carrier
// sense state may have changed), and schedules its end. Overlap with
// every concurrently active frame is recorded symmetrically.
func (n *Network) beginTX(from *Node, d time.Duration, kind string) *transmission {
	t := n.takeTX()
	t.from, t.start, t.end, t.kind = from, n.eng.Now(), n.eng.Now()+d, kind
	if kind == "data" {
		// The payload portion counts as data; the preamble as control.
		n.stats.DataAirtime += d - n.Params.PreambleDur
		n.stats.ControlAirtime += n.Params.PreambleDur
	} else {
		n.stats.ControlAirtime += d
	}
	for _, a := range n.active {
		t.addInterferer(a.from)
		a.addInterferer(from)
	}
	if rec := n.eng.Recorder(); rec != nil {
		rec.Record(trace.Record{T: int64(n.eng.Now()), AP: int32(from.ID), Kind: trace.KindWifiTX,
			N: 2, Args: [trace.MaxArgs]int64{frameCode(kind), int64(d)}})
	}
	n.active = append(n.active, t)
	n.notifyMediumChange()
	n.eng.After(d, t.endFn)
	return t
}

// notifyMediumChange pokes idle APs, in registration order, so they can
// re-evaluate contention after a frame started or ended.
func (n *Network) notifyMediumChange() {
	for _, ap := range n.aps {
		if ap.contending && !ap.inTX {
			ap.reschedule()
		}
	}
}

// setNAVFromExchange makes third-party nodes that can decode an RTS/CTS
// defer until the exchange would complete.
func (n *Network) setNAVFromExchange(initiator, responder *Node, until sim.Time) {
	for _, node := range n.nodes {
		if node == initiator || node == responder {
			continue
		}
		heard := n.canHear(initiator, node) || n.canHear(responder, node)
		if heard && until > node.navUntil {
			node.navUntil = until
		}
	}
}

// canHear reports whether rx detects a preamble from tx: above the
// carrier-sense threshold.
func (n *Network) canHear(tx, rx *Node) bool {
	return n.rxPowerDBm(tx, rx) >= n.Params.CSThresholdDBm
}

// hasData reports whether any client has queued traffic, without
// touching the round-robin cursor.
func (ap *Node) hasData() bool {
	for _, c := range ap.clients {
		if c.qBits > 0 {
			return true
		}
	}
	return false
}

// tryStart enters contention if the AP has data and is not already
// contending or transmitting.
func (ap *Node) tryStart() {
	if !ap.isAP || ap.contending || ap.inTX {
		return
	}
	if !ap.hasData() {
		return
	}
	ap.contending = true
	ap.backoff = ap.net.rng.Intn(ap.cw + 1)
	if rec := ap.net.eng.Recorder(); rec != nil {
		rec.Record(trace.Record{T: int64(ap.net.eng.Now()), AP: int32(ap.ID), Kind: trace.KindWifiBackoff,
			N: 2, Args: [trace.MaxArgs]int64{int64(ap.backoff), int64(ap.cw)}})
	}
	ap.reschedule()
}

// reschedule (re)arms the defer/backoff machinery after any medium
// state change.
func (ap *Node) reschedule() {
	ap.slotEv.Cancel()
	ap.slotEv = sim.Event{}
	ap.deferEv.Cancel()
	ap.deferEv = sim.Event{}
	if !ap.contending || ap.inTX {
		return
	}
	n := ap.net
	if n.busyAt(ap) {
		// Wait for the next medium change (or NAV expiry).
		if wait := ap.navUntil - n.eng.Now(); wait > 0 {
			ap.deferEv = n.eng.After(wait, ap.rescheduleFn)
		}
		return
	}
	// Idle: wait DIFS then count down slots.
	ap.deferEv = n.eng.After(n.Params.DIFS, ap.slotTickFn)
}

// slotTick consumes one backoff slot while the medium stays idle.
func (ap *Node) slotTick() {
	n := ap.net
	if n.busyAt(ap) {
		ap.reschedule()
		return
	}
	if ap.backoff > 0 {
		ap.backoff--
		ap.slotEv = n.eng.After(n.Params.SlotTime, ap.slotTickFn)
		return
	}
	ap.startExchange()
}

// pickClient round-robins over clients with queued data.
func (ap *Node) pickClient() (*Node, bool) {
	if len(ap.clients) == 0 {
		return nil, false
	}
	for i := 0; i < len(ap.clients); i++ {
		c := ap.clients[(ap.nextCli+i)%len(ap.clients)]
		if c.qBits > 0 {
			ap.nextCli = (ap.nextCli + i + 1) % len(ap.clients)
			return c, true
		}
	}
	return nil, false
}

// startExchange runs one TXOP: optional RTS/CTS, then an aggregated
// data frame and its block-ack. The exchange's parameters live on the
// AP and its stages are the pre-bound handlers below, so a TXOP
// schedules the exact event sequence the closure-based implementation
// did without allocating.
func (ap *Node) startExchange() {
	n := ap.net
	client, ok := ap.pickClient()
	if !ok {
		ap.contending = false
		return
	}
	ap.inTX = true

	// Ideal rate adaptation from the client's long-term SNR, backed
	// off by the configured link margin.
	snr := n.rxPowerDBm(ap, client) - n.noiseDBm()
	mcs, decodable := phy.WiFiMCSFromSINR(snr - n.Params.LinkMarginDB)
	if !decodable {
		// Out of range: burn a minimal attempt so the failure has a
		// cost, then count it against the retry budget.
		ap.inTX = false
		ap.failure()
		return
	}

	budget := n.Params.MaxTXDuration
	payloadBytes := n.Params.MaxPayloadForDuration(budget, mcs)
	if q := client.qBits / 8; int64(payloadBytes) > q {
		payloadBytes = int(q)
	}
	ap.exClient = client
	ap.exMCS = mcs
	ap.exPayload = payloadBytes
	ap.exDataDur = n.Params.FrameDuration(payloadBytes, mcs)

	if !n.Params.RTSCTS {
		ap.sendData()
		return
	}

	rtsDur := n.Params.ControlDuration(rtsBytes)
	ctsDur := n.Params.ControlDuration(ctsBytes)
	ap.exEnd = n.eng.Now() + rtsDur + n.Params.SIFS + ctsDur +
		n.Params.SIFS + ap.exDataDur + n.Params.SIFS + n.Params.ControlDuration(ackBytes)

	ap.exTX = n.beginTX(ap, rtsDur, "rts")
	n.eng.After(rtsDur, ap.afterRTSFn)
}

// afterRTS checks the RTS decode at the client and either reserves the
// medium for the exchange or backs off.
func (ap *Node) afterRTS() {
	n := ap.net
	if n.sinrOf(ap.exTX, ap.exClient) >= phy.WiFiMCS(0).MinSINRdB {
		n.setNAVFromExchange(ap, ap.exClient, ap.exEnd)
		n.eng.After(n.Params.SIFS, ap.sendCTSFn)
	} else {
		// RTS collided or client out of range: back off.
		ap.inTX = false
		ap.failure()
	}
}

// sendCTS puts the client's CTS on the air.
func (ap *Node) sendCTS() {
	n := ap.net
	ctsDur := n.Params.ControlDuration(ctsBytes)
	ap.exTX = n.beginTX(ap.exClient, ctsDur, "cts")
	n.eng.After(ctsDur, ap.afterCTSFn)
}

// afterCTS refreshes third-party NAVs and leads into the data frame.
func (ap *Node) afterCTS() {
	n := ap.net
	n.setNAVFromExchange(ap, ap.exClient, ap.exEnd)
	n.eng.After(n.Params.SIFS, ap.sendDataFn)
}

// sendData puts the aggregated data frame on the air.
func (ap *Node) sendData() {
	n := ap.net
	ap.exTX = n.beginTX(ap, ap.exDataDur, "data")
	n.eng.After(ap.exDataDur, ap.afterDataFn)
}

// afterData checks the data decode at the client and either solicits
// the block-ack or backs off.
func (ap *Node) afterData() {
	n := ap.net
	if n.sinrOf(ap.exTX, ap.exClient) >= ap.exMCS.MinSINRdB {
		// Block-ack after SIFS at basic rate.
		n.eng.After(n.Params.SIFS, ap.sendAckFn)
	} else {
		ap.inTX = false
		ap.failure()
	}
}

// sendAck puts the client's block-ack on the air.
func (ap *Node) sendAck() {
	n := ap.net
	ackDur := n.Params.ControlDuration(ackBytes)
	n.beginTX(ap.exClient, ackDur, "ack")
	n.eng.After(ackDur, ap.afterAckFn)
}

// afterAck completes the TXOP.
func (ap *Node) afterAck() {
	ap.success(ap.exClient, int64(ap.exPayload)*8)
}

// success completes a TXOP: credit delivery, reset contention state.
func (ap *Node) success(client *Node, bits int64) {
	client.qBits -= bits
	if client.qBits < 0 {
		client.qBits = 0
	}
	client.dBits += bits
	ap.net.stats.TXOPs++
	ap.net.stats.DeliveredBits += bits
	ap.inTX = false
	ap.contending = false
	ap.retries = 0
	ap.cw = ap.net.Params.CWMin
	ap.tryStart()
}

// failure handles a failed attempt: exponential backoff, drop after the
// retry limit.
func (ap *Node) failure() {
	ap.net.stats.Failures++
	ap.retries++
	dropped := int64(0)
	if ap.retries > ap.net.Params.RetryLimit {
		dropped = 1
	}
	if rec := ap.net.eng.Recorder(); rec != nil {
		rec.Record(trace.Record{T: int64(ap.net.eng.Now()), AP: int32(ap.ID), Kind: trace.KindWifiFail,
			N: 3, Args: [trace.MaxArgs]int64{int64(ap.retries), int64(ap.cw), dropped}})
	}
	if ap.retries > ap.net.Params.RetryLimit {
		// Abandon this aggregate; for backlogged queues the traffic
		// source keeps the queue full, so this surfaces as lost
		// airtime, i.e. starvation.
		ap.net.Drops++
		ap.retries = 0
		ap.cw = ap.net.Params.CWMin
	} else {
		ap.cw = ap.cw*2 + 1
		if ap.cw > ap.net.Params.CWMax {
			ap.cw = ap.net.Params.CWMax
		}
	}
	ap.contending = false
	ap.tryStart()
}

// String describes a node for logs.
func (no *Node) String() string {
	kind := "sta"
	if no.isAP {
		kind = "ap"
	}
	return fmt.Sprintf("%s%d@%s", kind, no.ID, no.Pos)
}
