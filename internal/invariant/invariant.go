// Package invariant is the online regulatory verifier: a
// trace.Recorder that watches the flight-recorder stream as it is
// written and continuously checks the ETSI EN 301 598 catalog the whole
// system exists to uphold — no transmission without a valid unexpired
// lease, no transmission past the vacate budget, renewal before
// expiry, and evacuation of incumbent-occupied channels within the
// regulatory deadline.
//
// The checker follows the trace package's zero-cost contract: it is
// nil-default at emit sites, its Record method does not allocate on
// the non-violating path (per-AP and per-channel state cells are
// allocated once and reused), and it is not goroutine-safe — each run
// owns its checker, mirroring sim.Engine's threading model. Hand it to
// a world as its recorder (chaos.Run's out, netsim.Config.Trace,
// metro's SetRecorder), or replay a decoded stream offline with Feed
// (that is what `cellfi trace verify` does).
//
// Evidence model: the lease FSM emits a KindLeaseBudget record —
// (channel, lease expiry, vacate-by) — on every entry into Granted,
// and scenario harnesses emit one KindRadioTX per AP per step while
// the radio gate is open. The checker replays budgets and bounds every
// transmission against the most recent one; KindIncumbent records
// (world-clock arrivals/departures of protected primaries) bound
// transmissions on occupied channels; KindAPLife crash records reset
// the per-AP model the way a power cycle resets the hardware. Because
// per-AP records are self-consistent in the AP's own (possibly
// skewed) clock, only the cross-clock incumbent rule needs Slack.
package invariant

import (
	"fmt"
	"time"

	"cellfi/internal/core"
	"cellfi/internal/trace"
)

// Rule identifiers. These are stable strings: they appear in
// `cellfi trace verify` output, and tests match on them.
const (
	// RuleTxWithoutLease: a KindRadioTX record with no live lease on
	// that channel — never granted, already vacated, expired, on a
	// different channel than leased, or after a crash.
	RuleTxWithoutLease = "tx-without-lease"
	// RuleTxPastVacateBudget: a transmission after the vacate-by
	// instant of the last granted budget — the lost-database-contact
	// fail-safe (ETSI EN 301 598: cease within the deadline of the
	// last successful database contact).
	RuleTxPastVacateBudget = "tx-past-vacate-budget"
	// RuleTxOnOccupiedChannel: a transmission on a channel a protected
	// incumbent arrived on more than Deadline (+Slack) earlier — the
	// evacuation guarantee the paper's Figure 6 experiment measures.
	RuleTxOnOccupiedChannel = "tx-on-occupied-channel"
	// RuleRenewalAfterExpiry: a renewal poll (Granted→Renewing edge)
	// that started only after the lease had already expired — the AP
	// let the lease lapse while nominally on the air.
	RuleRenewalAfterExpiry = "renewal-after-expiry"
)

// Violation is one failed invariant: the rule, the violating record
// and its zero-based index in the stream, and a human-readable detail
// line. The first violation in stream order is what fails a run.
type Violation struct {
	Rule string
	// Index is the zero-based position of Rec in the stream.
	Index int
	Rec   trace.Record
	// Detail explains the violation in terms of the evidence records
	// that preceded it.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at record %d (%s): %s", v.Rule, v.Index, v.Rec, v.Detail)
}

// apState is the checker's model of one access point, rebuilt from
// evidence records. The zero value means "alive, off-channel".
type apState struct {
	down     bool
	hasLease bool
	channel  int64
	until    int64 // lease expiry, ns in the AP's clock
	vacateBy int64 // min(until, last contact + deadline), ns in the AP's clock
}

// chanOcc tracks protected-incumbent occupancy of one channel: how
// many are present and when the current occupation began (world
// clock).
type chanOcc struct {
	count   int
	arrival int64
}

// Checker is the online verifier. The zero value is ready to use;
// configure Deadline/Slack before feeding records.
type Checker struct {
	// Deadline is the evacuation deadline for the incumbent-occupancy
	// rule; zero means core.VacateDeadline (the ETSI minute).
	Deadline time.Duration
	// Slack widens only the incumbent rule: incumbent arrivals are
	// stamped in the world clock while TX records carry the AP's
	// (possibly skewed) clock, so cross-clock comparisons need the
	// scenario's maximum skew as headroom. Per-AP rules compare
	// records from one clock and take no slack.
	Slack time.Duration
	// MaxViolations bounds how many violations are retained (the rest
	// are only counted); zero means 16.
	MaxViolations int

	n          int
	aps        map[int32]*apState
	occ        map[int64]*chanOcc
	violations []Violation
	total      int
}

func (c *Checker) deadlineNS() int64 {
	if c.Deadline > 0 {
		return int64(c.Deadline)
	}
	return int64(core.VacateDeadline)
}

func (c *Checker) ap(id int32) *apState {
	if c.aps == nil {
		c.aps = make(map[int32]*apState)
	}
	st := c.aps[id]
	if st == nil {
		st = &apState{}
		c.aps[id] = st
	}
	return st
}

func (c *Checker) fail(rule string, idx int, rec trace.Record, format string, args ...any) {
	c.total++
	max := c.MaxViolations
	if max <= 0 {
		max = 16
	}
	if len(c.violations) < max {
		c.violations = append(c.violations,
			Violation{Rule: rule, Index: idx, Rec: rec, Detail: fmt.Sprintf(format, args...)})
	}
}

// Record implements trace.Recorder: it updates the model from evidence
// records and checks transmission records against it. Unknown kinds
// pass through untouched, so the checker can sit in front of any
// stream.
func (c *Checker) Record(r trace.Record) {
	idx := c.n
	c.n++
	switch r.Kind {
	case trace.KindLeaseBudget:
		st := c.ap(r.AP)
		st.hasLease = true
		st.channel = r.Args[0]
		st.until = r.Args[1]
		st.vacateBy = r.Args[2]

	case trace.KindLease:
		st := c.ap(r.AP)
		from, to := core.LeaseState(r.Args[0]), core.LeaseState(r.Args[1])
		if from == core.StateGranted && to == core.StateRenewing &&
			st.hasLease && r.T > st.until {
			c.fail(RuleRenewalAfterExpiry, idx, r,
				"renewal started %v after lease expiry",
				time.Duration(r.T-st.until))
		}
		if to == core.StateVacated {
			st.hasLease = false
		}

	case trace.KindRadioTX:
		st := c.ap(r.AP)
		ch := r.Args[0]
		switch {
		case st.down:
			c.fail(RuleTxWithoutLease, idx, r, "radio on after crash")
		case !st.hasLease:
			c.fail(RuleTxWithoutLease, idx, r, "no lease held")
		case ch != st.channel:
			c.fail(RuleTxWithoutLease, idx, r,
				"transmitting on channel %d but lease is for %d", ch, st.channel)
		case r.T > st.vacateBy:
			c.fail(RuleTxPastVacateBudget, idx, r,
				"%v past vacate-by", time.Duration(r.T-st.vacateBy))
		case r.T > st.until:
			// Unreachable with well-formed budgets (vacate-by ≤
			// expiry) but fuzzed or corrupted streams can invert them.
			c.fail(RuleTxWithoutLease, idx, r,
				"%v past lease expiry", time.Duration(r.T-st.until))
		default:
			if o := c.occ[ch]; o != nil && o.count > 0 &&
				r.T > o.arrival+c.deadlineNS()+int64(c.Slack) {
				c.fail(RuleTxOnOccupiedChannel, idx, r,
					"incumbent arrived %v earlier (deadline %v, slack %v)",
					time.Duration(r.T-o.arrival), time.Duration(c.deadlineNS()), c.Slack)
			}
		}

	case trace.KindIncumbent:
		ch := r.Args[0]
		if c.occ == nil {
			c.occ = make(map[int64]*chanOcc)
		}
		o := c.occ[ch]
		if o == nil {
			o = &chanOcc{}
			c.occ[ch] = o
		}
		if r.Args[1] == 1 {
			if o.count == 0 {
				o.arrival = r.T
			}
			o.count++
		} else if o.count > 0 {
			o.count--
		}

	case trace.KindAPLife:
		st := c.ap(r.AP)
		st.hasLease = false
		st.down = r.Args[0] == 0
	}
}

// Feed replays a decoded record slice through the checker.
func (c *Checker) Feed(recs []trace.Record) {
	for _, r := range recs {
		c.Record(r)
	}
}

// First returns the first violation in stream order, nil when the
// stream is clean so far.
func (c *Checker) First() *Violation {
	if len(c.violations) == 0 {
		return nil
	}
	return &c.violations[0]
}

// Violations returns the retained violations (stream order, bounded
// by MaxViolations).
func (c *Checker) Violations() []Violation { return c.violations }

// Total returns how many violations occurred, including ones beyond
// the retention bound.
func (c *Checker) Total() int { return c.total }

// Records returns how many records the checker has consumed.
func (c *Checker) Records() int { return c.n }
