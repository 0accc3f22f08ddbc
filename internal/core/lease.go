package core

import (
	"fmt"
	"time"

	"cellfi/internal/trace"
)

// Lease lifecycle state machine. The selector's regulatory contract
// (ETSI EN 301 598, Section 4.2.2 of the paper) is a five-state
// machine:
//
//	Acquiring → Granted → Renewing → GracePeriod → Vacated
//	    ↑                                              │
//	    └──────────────────────────────────────────────┘
//
// Acquiring: off-channel, polling for an offer. Granted: a fresh lease
// is held and the radio may transmit. Renewing: a renewal poll is in
// flight (entered at the top of every Refresh while a lease is held).
// GracePeriod: the last renewal failed; the radio stays on, but only
// until the vacate budget — min(lease expiry, last successful database
// contact + VacateDeadline) — runs out. Vacated: the budget expired or
// the database withdrew the channel; the radio is off.
//
// TransmitAllowed is the radio gate derived from this machine: it is a
// pure function of (state, now) so that the ETSI invariant — never
// transmit more than VacateDeadline past the last successful contact —
// holds between polls, not just at poll instants.

// LeaseState is a lease lifecycle state.
type LeaseState int

const (
	// StateAcquiring: no lease; polling the database for an offer.
	StateAcquiring LeaseState = iota
	// StateGranted: lease held, last poll succeeded; radio on.
	StateGranted
	// StateRenewing: lease held, renewal poll in flight.
	StateRenewing
	// StateGracePeriod: lease held but the last renewal failed; radio
	// on only inside the vacate budget.
	StateGracePeriod
	// StateVacated: radio off after a withdrawal or budget expiry.
	StateVacated
)

func (s LeaseState) String() string {
	switch s {
	case StateAcquiring:
		return "acquiring"
	case StateGranted:
		return "granted"
	case StateRenewing:
		return "renewing"
	case StateGracePeriod:
		return "grace-period"
	case StateVacated:
		return "vacated"
	}
	return "?"
}

// Transition is one state-machine edge, delivered to OnTransition
// hooks and accumulated by chaos harnesses into golden logs.
type Transition struct {
	From, To LeaseState
	// At is the poll time that caused the edge.
	At time.Time
	// Reason is a short stable description ("lease renewed",
	// "renewal failed", ...). Golden logs compare it byte-for-byte,
	// so changing one is a test-visible change.
	Reason string
}

// String renders the transition in the stable form golden logs use.
func (t Transition) String() string {
	return fmt.Sprintf("%s->%s reason=%q", t.From, t.To, t.Reason)
}

// leaseReasons is the closed set of transition reasons the selector
// emits, in trace-code order. Codes are part of the trace wire
// contract: append new reasons, never reorder.
var leaseReasons = []string{
	"renewal poll",
	"reacquisition poll",
	"lease renewed",
	"channel withdrawn",
	"channel switched",
	"channel acquired",
	"regulatory deny",
	"vacate budget expired",
	"renewal failed",
}

// LeaseReasonCode maps a transition reason to its stable trace code,
// -1 for reasons outside the known set.
func LeaseReasonCode(reason string) int64 {
	for i, r := range leaseReasons {
		if r == reason {
			return int64(i)
		}
	}
	return -1
}

// SelectorStats is a counter snapshot of a ChannelSelector, in the
// mould of sim.Engine.Stats: monotonic counters plus current state,
// cheap enough to sample every poll.
type SelectorStats struct {
	// Refreshes counts Refresh calls.
	Refreshes uint64
	// Failures counts Refresh calls whose database query failed.
	Failures uint64
	// Transitions counts state-machine edges (self-loops excluded).
	Transitions uint64
	// Acquired counts entries into Granted from off-channel.
	Acquired uint64
	// Renewed counts successful lease renewals.
	Renewed uint64
	// Switched counts withdrawals resolved by moving channel.
	Switched uint64
	// GraceEntries counts entries into GracePeriod.
	GraceEntries uint64
	// Vacated counts entries into Vacated.
	Vacated uint64
	// State is the current lifecycle state.
	State LeaseState
	// LastContact is the time of the last successful database answer
	// (zero before the first).
	LastContact time.Time
}

// Stats returns a snapshot of the selector's activity counters.
func (s *ChannelSelector) Stats() SelectorStats {
	st := s.stats
	st.State = s.state
	st.LastContact = s.lastContact
	return st
}

// LastContact returns when the database last answered successfully.
func (s *ChannelSelector) LastContact() time.Time { return s.lastContact }

// VacateBy returns the instant the radio must be off by if no further
// database contact succeeds: the earlier of the lease expiry and
// LastContact+VacateDeadline. Off-channel it returns the zero time.
func (s *ChannelSelector) VacateBy() time.Time {
	if s.current == nil {
		return time.Time{}
	}
	budget := s.lastContact.Add(VacateDeadline)
	if s.current.Until.Before(budget) {
		return s.current.Until
	}
	return budget
}

// TransmitAllowed is the radio gate: true only while a lease is held
// and now is inside the vacate budget. It is a pure function of the
// selector's state and now, so callers polling slower than the budget
// still shut the radio off in time.
func (s *ChannelSelector) TransmitAllowed(now time.Time) bool {
	if s.current == nil || s.state == StateVacated || s.state == StateAcquiring {
		return false
	}
	return !now.After(s.VacateBy())
}

// transition moves the machine to state `to`, firing the OnTransition
// hook and bumping counters. Self-loops are no-ops.
func (s *ChannelSelector) transition(to LeaseState, at time.Time, reason string) {
	if s.state == to {
		return
	}
	tr := Transition{From: s.state, To: to, At: at, Reason: reason}
	s.state = to
	s.stats.Transitions++
	switch to {
	case StateGracePeriod:
		s.stats.GraceEntries++
	case StateVacated:
		s.stats.Vacated++
	}
	if s.Trace != nil {
		ch := int64(-1)
		if s.current != nil {
			ch = int64(s.current.Channel)
		}
		s.Trace.Record(trace.Record{T: at.UnixNano(), AP: s.TraceAP, Kind: trace.KindLease,
			N: 4, Args: [trace.MaxArgs]int64{int64(tr.From), int64(to), LeaseReasonCode(reason), ch}})
		// Every entry into Granted follows a successful contact, so the
		// lease expiry and vacate budget are both fresh here: emit them
		// as the evidence record the invariant verifier bounds every
		// later transmission against.
		if to == StateGranted && s.current != nil {
			s.Trace.Record(trace.Record{T: at.UnixNano(), AP: s.TraceAP, Kind: trace.KindLeaseBudget,
				N: 3, Args: [trace.MaxArgs]int64{ch, s.current.Until.UnixNano(), s.VacateBy().UnixNano()}})
		}
	}
	if s.OnTransition != nil {
		s.OnTransition(tr)
	}
}
