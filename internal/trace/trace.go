// Package trace is the repo's flight recorder: a software stand-in for
// the QXDM modem traces and SDR probes the paper's evaluation plane was
// built on. Layers emit small, typed, fixed-size Records through a
// Recorder; the Ring recorder buffers them allocation-free and can
// spill the full stream to disk in a compact varint+delta binary
// format that `cellfi trace` decodes, filters, renders and diffs.
//
// # The zero-cost contract
//
// Instrumented hot loops hold a Recorder that is nil by default. The
// emit site is always
//
//	if rec != nil {
//		rec.Record(trace.Record{...})
//	}
//
// so with tracing off the only cost is one predictable branch, and
// with tracing on the cost is one interface call plus one 64-byte
// store into the ring — no heap allocation either way. Tier-1 tests
// enforce both halves: sim.TestDispatchZeroAllocs, and the lte subframe
// and wifi CSMA zero-alloc tests, run with the recorder off *and* on;
// TestRecordPathZeroAllocs covers the ring itself.
//
// # Record semantics
//
// A Record is (timestamp, AP, kind, args). Timestamps are nanoseconds
// in whatever clock the emitting layer runs on — virtual sim time for
// engine-driven layers, epoch time for the fluid netsim, caller-passed
// wall time for the lease FSM. Within one stream the clock is
// consistent, which is all the delta encoder and the diff tool need.
// AP identifies the cell/access point a record belongs to (-1 when not
// applicable). Args are kind-specific; their meaning is documented on
// each Kind constant.
package trace

import "fmt"

// Version is the stream format version. Decoders reject any other
// value: the format has no cross-version compatibility machinery, and
// a skewed reader erroring out beats one misparsing silently. Bump it
// whenever the header or record wire layout changes, including raising
// MaxArgs (see DESIGN.md "Trace format and versioning").
const Version = 1

// MaxArgs is the per-record argument capacity. Records are
// self-describing (they carry their own arg count), so adding args to
// a kind — up to MaxArgs — is not a version bump; growing the array
// itself is.
const MaxArgs = 4

// Kind identifies a record type. Zero is reserved as invalid so a
// zeroed buffer never decodes as records. Decoders accept kinds they
// do not know (the record layout is self-describing), which lets an
// old `cellfi trace` at least dump streams from a newer writer.
type Kind uint8

const (
	// KindSimFire: the event engine dispatched a scheduled callback.
	// T is the virtual fire time; no args.
	KindSimFire Kind = 1 + iota
	// KindLTEGrant: one decoded PDCCH grant in a downlink subframe.
	// Args: RNTI, subchannel bitmask, transport bits granted.
	KindLTEGrant
	// KindLTECQI: one client's aperiodic CQI report.
	// Args: client ID, wideband CQI.
	KindLTECQI
	// KindWifiTX: a frame went on the air.
	// Args: frame kind (WifiFrame*), duration ns.
	KindWifiTX
	// KindWifiFail: a TXOP attempt failed (collision, undecodable, out
	// of range). Args: retry count after the failure, contention
	// window at failure time, 1 if the aggregate was dropped.
	KindWifiFail
	// KindWifiBackoff: an AP entered contention.
	// Args: drawn backoff slots, contention window.
	KindWifiBackoff
	// KindIMShare: an interference-management epoch completed.
	// Args: target share, held-subchannel bitmask, held count.
	KindIMShare
	// KindIMHop: the IM controller changed a subchannel holding.
	// Args: from subchannel (-1 = none), to subchannel (-1 = none),
	// cause (HopCause*).
	KindIMHop
	// KindLease: a PAWS lease FSM transition.
	// Args: from state, to state, reason code, channel (-1 = none).
	// State and reason codes are core.LeaseState values and
	// core.LeaseReasonCode values respectively.
	KindLease
	// KindPAWSQuery: a PAWS JSON-RPC call completed (after in-call
	// retries). Args: method code (PAWSMethod*), error class (-1 =
	// success, else paws.ErrorClass), attempts, and — when the client
	// runs with an ordered endpoint list — the endpoint index that
	// served the final attempt (0 = primary).
	KindPAWSQuery
	// KindLeaseBudget: the regulatory transmit budget after a
	// successful database contact (emitted by the lease FSM alongside
	// every transition into Granted). Args: channel, lease expiry
	// (ns), vacate-by instant (ns) = min(expiry, contact + deadline).
	// The invariant verifier replays these to bound every later
	// transmission.
	KindLeaseBudget
	// KindRadioTX: the access point's radio was on the air. Args:
	// channel. Scenario harnesses emit one per AP per step while the
	// radio gate is open; it is the transmission evidence the
	// regulatory invariants are checked against.
	KindRadioTX
	// KindIncumbent: a primary user arrived on or departed from a
	// channel whose protection contour covers the whole scenario
	// world (wireless-mic storms). Args: channel, 1 = arrive / 0 =
	// depart, incumbent kind (spectrum.IncumbentKind). AP is -1.
	KindIncumbent
	// KindAPLife: an access point crashed (args[0] = 0) or restarted
	// cold (args[0] = 1). A crash wipes the radio and lease state; the
	// verifier resets its per-AP model accordingly.
	KindAPLife
	// KindMetroEpoch: one metro-world epoch fold. Args: attached UEs,
	// handovers this epoch, delivered bits this epoch, sum of attached
	// UEs' CQI indices. AP is -1. All four are order-invariant integer
	// aggregates, so the record is byte-identical at any shard count.
	KindMetroEpoch
)

// Wi-Fi frame kind codes for KindWifiTX args[0].
const (
	WifiFrameRTS int64 = iota
	WifiFrameCTS
	WifiFrameData
	WifiFrameAck
)

// IM hop cause codes for KindIMHop args[2].
const (
	// HopCauseBucket: the subchannel's exponential bucket ran out.
	HopCauseBucket int64 = iota
	// HopCauseShareGrow / HopCauseShareShrink: share reconciliation.
	HopCauseShareGrow
	HopCauseShareShrink
	// HopCausePack: the channel re-use packing heuristic.
	HopCausePack
	// HopCauseAcquire / HopCauseRelease: coordinated (re)assignment.
	HopCauseAcquire
	HopCauseRelease
)

// PAWS method codes for KindPAWSQuery args[0].
const (
	PAWSMethodInit int64 = iota
	PAWSMethodGetSpectrum
	PAWSMethodNotify
	PAWSMethodOther
)

var kindNames = map[Kind]string{
	KindSimFire:     "sim-fire",
	KindLTEGrant:    "lte-grant",
	KindLTECQI:      "lte-cqi",
	KindWifiTX:      "wifi-tx",
	KindWifiFail:    "wifi-fail",
	KindWifiBackoff: "wifi-backoff",
	KindIMShare:     "im-share",
	KindIMHop:       "im-hop",
	KindLease:       "lease",
	KindPAWSQuery:   "paws-query",
	KindLeaseBudget: "lease-budget",
	KindRadioTX:     "radio-tx",
	KindIncumbent:   "incumbent",
	KindAPLife:      "ap-life",
	KindMetroEpoch:  "metro-epoch",
}

// String returns the stable dump/filter name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a dump/filter name back to its Kind. It reports
// false for names it does not know.
func ParseKind(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return k, true
		}
	}
	return 0, false
}

// Record is one flight-recorder event. It is a plain 64-byte value:
// building one and passing it to Recorder.Record never allocates.
type Record struct {
	// T is the record timestamp in nanoseconds of the emitting layer's
	// clock (virtual time, epoch time, or wall time — consistent
	// within a stream).
	T int64
	// Args are the kind-specific fields; only Args[:N] are meaningful
	// and encoded.
	Args [MaxArgs]int64
	// AP is the cell/access-point ID the record belongs to, -1 when
	// not applicable.
	AP int32
	// Kind is the record type.
	Kind Kind
	// N is the number of valid Args.
	N uint8
}

// String renders the record in the stable single-line dump form.
func (r Record) String() string {
	s := fmt.Sprintf("t=%d ap=%d %s", r.T, r.AP, r.Kind)
	for i := 0; i < int(r.N) && i < MaxArgs; i++ {
		s += fmt.Sprintf(" a%d=%d", i, r.Args[i])
	}
	return s
}

// Recorder receives flight-recorder events. Implementations must not
// retain the record past the call (it is reused by value) and must not
// allocate on the record path; Ring is the canonical implementation.
// Recorders are not required to be goroutine-safe — each simulation
// run owns its recorder, mirroring sim.Engine's threading model.
type Recorder interface {
	Record(Record)
}
