package core

import (
	"fmt"
	"math"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/lte"
	"cellfi/internal/paws"
	"cellfi/internal/spectrum"
	"cellfi/internal/trace"
)

// Channel selection (Section 4.2): the CellFi AP maintains a valid TV-
// channel lease from a PAWS spectrum database, vacates within the
// regulatory deadline when the channel is withdrawn, and picks among
// offered channels by network listen — preferring idle channels, then
// channels occupied by other CellFi cells (whose interference the IM
// component can manage), and avoiding channels occupied by non-LTE
// technologies.

// Regulatory and measured timing constants for the Figure 6 experiment.
const (
	// VacateDeadline: ETSI EN 301 598 requires transmissions to stop
	// within one minute of channel withdrawal.
	VacateDeadline = time.Minute
	// MeasuredVacateDelay is what the paper's testbed achieved (the
	// AP radio off 2 s after the database change was observed).
	MeasuredVacateDelay = 2 * time.Second
	// MeasuredAPRebootDelay: the E40 needs 1 m 36 s to reboot after
	// radio parameter changes.
	MeasuredAPRebootDelay = 96 * time.Second
	// MeasuredClientReconnectDelay: the client's multi-band cell
	// search takes 56 s before traffic resumes.
	MeasuredClientReconnectDelay = 56 * time.Second
)

// Occupancy classifies what network listen hears on a TV channel.
type Occupancy int

const (
	// Idle: no transmissions detected.
	Idle Occupancy = iota
	// CellFiOccupied: other CellFi/LTE cells detected — sharable via
	// intra-channel interference management.
	CellFiOccupied
	// OtherTechOccupied: a non-LTE secondary user (e.g. 802.11af) —
	// avoided, since inter-technology coexistence is out of scope
	// (Section 2).
	OtherTechOccupied
)

func (o Occupancy) String() string {
	switch o {
	case Idle:
		return "idle"
	case CellFiOccupied:
		return "cellfi"
	case OtherTechOccupied:
		return "other-tech"
	}
	return "?"
}

// ListenFunc reports network-listen occupancy for a TV channel.
type ListenFunc func(channel int) Occupancy

// Lease is the channel the AP currently operates in.
type Lease struct {
	Channel      int
	CenterFreqHz float64
	EARFCN       int
	MaxEIRPdBm   float64
	Until        time.Time
}

// Action describes the outcome of a selector refresh.
type Action int

const (
	// NoChange: current lease still valid.
	NoChange Action = iota
	// Acquired: a (new) channel was selected.
	Acquired
	// Vacated: the current channel was withdrawn and no replacement
	// is available.
	Vacated
	// Switched: current channel withdrawn, a replacement acquired.
	Switched
)

func (a Action) String() string {
	switch a {
	case NoChange:
		return "no-change"
	case Acquired:
		return "acquired"
	case Vacated:
		return "vacated"
	case Switched:
		return "switched"
	}
	return "?"
}

// ChannelSelector drives the PAWS client for one access point.
type ChannelSelector struct {
	DB             *paws.Client
	Location       geo.Point
	AntennaHeightM float64
	// Bandwidth the LTE carrier needs; wider carriers need runs of
	// contiguous TV channels.
	Bandwidth lte.Bandwidth
	// Listen is the network-listen probe; nil treats everything as
	// idle.
	Listen ListenFunc
	// OnTransition, when set, observes every lease state-machine edge
	// (telemetry hook; see lease.go). It must not call back into the
	// selector.
	OnTransition func(Transition)
	// Trace, when non-nil, receives a lease record per state-machine
	// edge, timestamped with the poll time that caused it; TraceAP
	// tags the owning access point.
	Trace   trace.Recorder
	TraceAP int32

	current     *Lease
	state       LeaseState
	lastContact time.Time
	stats       SelectorStats
}

// NewChannelSelector returns a selector for an AP at the given
// location using a 5 MHz carrier.
func NewChannelSelector(db *paws.Client, loc geo.Point, heightM float64) *ChannelSelector {
	return &ChannelSelector{DB: db, Location: loc, AntennaHeightM: heightM, Bandwidth: lte.BW5MHz}
}

// Current returns the active lease, or nil when off-channel.
func (s *ChannelSelector) Current() *Lease { return s.current }

// RequiredTVChannels returns how many contiguous TV channels of the
// given width the LTE bandwidth needs.
func RequiredTVChannels(bw lte.Bandwidth, tvWidthHz float64) int {
	return int(math.Ceil(bw.Hz() / tvWidthHz))
}

// Refresh queries the database and reconciles the lease, driving the
// lifecycle state machine (lease.go). It returns the action taken.
// Refresh must be called at least once per the database's
// MaxPollingSecs; the Figure 6 experiment polls every second.
func (s *ChannelSelector) Refresh(now time.Time) (Action, error) {
	s.stats.Refreshes++
	switch {
	case s.current != nil:
		s.transition(StateRenewing, now, "renewal poll")
	case s.state == StateVacated:
		s.transition(StateAcquiring, now, "reacquisition poll")
	}
	resp, err := s.DB.GetSpectrum(s.Location, s.AntennaHeightM)
	if err != nil {
		s.stats.Failures++
		return s.refreshFailed(now, err)
	}
	s.lastContact = now
	avail := usableAt(resp.Channels(), now)
	had := s.current != nil

	if had && s.channelStillOffered(avail) {
		// Refresh the expiry from the new answer.
		for _, ci := range avail {
			if ci.Channel == s.current.Channel {
				s.current.Until = ci.Until
				s.current.MaxEIRPdBm = ci.MaxEIRPdBm
			}
		}
		s.stats.Renewed++
		s.transition(StateGranted, now, "lease renewed")
		return NoChange, nil
	}

	next, ok := s.pick(avail)
	switch {
	case !ok && had:
		s.current = nil
		s.transition(StateVacated, now, "channel withdrawn")
		return Vacated, nil
	case !ok:
		return NoChange, fmt.Errorf("core: no usable channel offered")
	case had:
		s.current = next
		s.stats.Switched++
		s.transition(StateGranted, now, "channel switched")
		return Switched, nil
	default:
		s.current = next
		s.stats.Acquired++
		s.transition(StateGranted, now, "channel acquired")
		return Acquired, nil
	}
}

// refreshFailed reconciles a failed database poll against the vacate
// budget: regulatory denials vacate immediately; transient failures
// ride the grace period until min(lease expiry, last contact +
// VacateDeadline); past the budget the fail-safe fires.
func (s *ChannelSelector) refreshFailed(now time.Time, err error) (Action, error) {
	if paws.Classify(err) == paws.RegulatoryDeny && s.current != nil {
		s.current = nil
		s.transition(StateVacated, now, "regulatory deny")
		return Vacated, err
	}
	if s.current == nil {
		// Off-channel: keep acquiring; nothing to vacate.
		return NoChange, err
	}
	if now.After(s.VacateBy()) {
		s.current = nil
		s.transition(StateVacated, now, "vacate budget expired")
		return Vacated, err
	}
	s.transition(StateGracePeriod, now, "renewal failed")
	return NoChange, err
}

// usableAt drops offers that are already expired at the poll time. A
// clock-skewed database can hand out leases that end in the past;
// treating them as absent (rather than carrying a dead lease) is what
// keeps Granted ⇒ TransmitAllowed coherent.
func usableAt(avail []spectrum.ChannelInfo, now time.Time) []spectrum.ChannelInfo {
	out := avail[:0]
	for _, ci := range avail {
		if ci.Until.After(now) {
			out = append(out, ci)
		}
	}
	return out
}

func (s *ChannelSelector) channelStillOffered(avail []spectrum.ChannelInfo) bool {
	for _, ci := range avail {
		if ci.Channel == s.current.Channel {
			return true
		}
	}
	return false
}

// pick selects the best channel: only channels inside contiguous runs
// wide enough for the carrier qualify; idle channels beat CellFi-
// occupied ones; other-technology channels are used only as a last
// resort. Within a class, the lowest channel number wins
// (deterministic, and it concentrates secondary users).
func (s *ChannelSelector) pick(avail []spectrum.ChannelInfo) (*Lease, bool) {
	if len(avail) == 0 {
		return nil, false
	}
	need := RequiredTVChannels(s.Bandwidth, avail[0].WidthHz)
	eligible := map[int]spectrum.ChannelInfo{}
	for _, run := range spectrum.ContiguousRuns(avail) {
		if run[1] < need {
			continue
		}
		// Any start position within the run that leaves `need`
		// channels qualifies; we track the first channel of the
		// carrier placement.
		for c := run[0]; c <= run[0]+run[1]-need; c++ {
			for _, ci := range avail {
				if ci.Channel == c {
					eligible[c] = ci
				}
			}
		}
	}
	if len(eligible) == 0 {
		return nil, false
	}
	listen := s.Listen
	if listen == nil {
		listen = func(int) Occupancy { return Idle }
	}
	best, bestClass := -1, Occupancy(99)
	for c := range eligible {
		cls := listen(c)
		if cls < bestClass || (cls == bestClass && c < best) {
			best, bestClass = c, cls
		}
	}
	ci := eligible[best]
	// Centre the LTE carrier on the (first) TV channel's centre; for
	// multi-channel carriers the centre shifts to cover the run.
	center := ci.CenterFreqHz + float64(need-1)*ci.WidthHz/2
	return &Lease{
		Channel:      best,
		CenterFreqHz: center,
		EARFCN:       lte.EARFCNFromFreq(center),
		MaxEIRPdBm:   ci.MaxEIRPdBm,
		Until:        ci.Until,
	}, true
}
