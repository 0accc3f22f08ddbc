package invariant

import (
	"testing"
	"time"

	"cellfi/internal/core"
	"cellfi/internal/trace"
)

const (
	sec = int64(time.Second)
	min = int64(time.Minute)
)

func budget(t int64, ap int32, ch, until, vacateBy int64) trace.Record {
	return trace.Record{T: t, AP: ap, Kind: trace.KindLeaseBudget, N: 3,
		Args: [trace.MaxArgs]int64{ch, until, vacateBy}}
}

func tx(t int64, ap int32, ch int64) trace.Record {
	return trace.Record{T: t, AP: ap, Kind: trace.KindRadioTX, N: 1,
		Args: [trace.MaxArgs]int64{ch}}
}

func lease(t int64, ap int32, from, to core.LeaseState) trace.Record {
	return trace.Record{T: t, AP: ap, Kind: trace.KindLease, N: 4,
		Args: [trace.MaxArgs]int64{int64(from), int64(to), 0, 21}}
}

func incumbent(t int64, ch, arrive int64) trace.Record {
	return trace.Record{T: t, AP: -1, Kind: trace.KindIncumbent, N: 3,
		Args: [trace.MaxArgs]int64{ch, arrive, 0}}
}

func apLife(t int64, ap int32, up int64) trace.Record {
	return trace.Record{T: t, AP: ap, Kind: trace.KindAPLife, N: 1,
		Args: [trace.MaxArgs]int64{up}}
}

// verify replays a decoded stream through a fresh default checker and
// returns the first violation, nil when the stream is clean.
func verify(recs []trace.Record) *Violation {
	c := &Checker{}
	c.Feed(recs)
	return c.First()
}

func firstRule(t *testing.T, recs []trace.Record) string {
	t.Helper()
	v := verify(recs)
	if v == nil {
		return ""
	}
	return v.Rule
}

func TestCleanStream(t *testing.T) {
	recs := []trace.Record{
		budget(0, 1, 21, 5*min, min),
		tx(sec, 1, 21),
		lease(2*sec, 1, core.StateGranted, core.StateRenewing),
		budget(2*sec, 1, 21, 5*min, 2*sec+min),
		tx(3*sec, 1, 21),
	}
	if v := verify(recs); v != nil {
		t.Fatalf("clean stream flagged: %v", v)
	}
}

func TestTxWithoutLease(t *testing.T) {
	if got := firstRule(t, []trace.Record{tx(0, 1, 21)}); got != RuleTxWithoutLease {
		t.Fatalf("no-lease TX: got %q, want %q", got, RuleTxWithoutLease)
	}
	// Vacated clears the lease.
	recs := []trace.Record{
		budget(0, 1, 21, 5*min, min),
		lease(sec, 1, core.StateGracePeriod, core.StateVacated),
		tx(2*sec, 1, 21),
	}
	if got := firstRule(t, recs); got != RuleTxWithoutLease {
		t.Fatalf("TX after vacate: got %q, want %q", got, RuleTxWithoutLease)
	}
	// Wrong channel.
	recs = []trace.Record{budget(0, 1, 21, 5*min, min), tx(sec, 1, 22)}
	if got := firstRule(t, recs); got != RuleTxWithoutLease {
		t.Fatalf("wrong-channel TX: got %q, want %q", got, RuleTxWithoutLease)
	}
	// TX after a crash wiped the lease.
	recs = []trace.Record{budget(0, 1, 21, 5*min, min), apLife(sec, 1, 0), tx(2*sec, 1, 21)}
	if got := firstRule(t, recs); got != RuleTxWithoutLease {
		t.Fatalf("TX after crash: got %q, want %q", got, RuleTxWithoutLease)
	}
}

func TestTxPastVacateBudget(t *testing.T) {
	recs := []trace.Record{
		budget(0, 1, 21, 5*min, min),
		tx(min, 1, 21), // exactly at the boundary: allowed
		tx(min+sec, 1, 21),
	}
	v := verify(recs)
	if v == nil || v.Rule != RuleTxPastVacateBudget {
		t.Fatalf("past-budget TX: got %v, want %s", v, RuleTxPastVacateBudget)
	}
	if v.Index != 2 {
		t.Fatalf("violation index = %d, want 2 (boundary TX must pass)", v.Index)
	}
}

func TestTxOnOccupiedChannel(t *testing.T) {
	// A fresh budget (database still answering, e.g. replica lagging the
	// registry) keeps the per-lease rules green; only the incumbent rule
	// catches the stale channel.
	recs := []trace.Record{
		budget(0, 1, 21, 10*min, min),
		incumbent(sec, 21, 1),
		tx(30*sec, 1, 21), // inside the evacuation deadline: allowed
		budget(40*sec, 1, 21, 10*min, 40*sec+min),
		tx(sec+min+sec, 1, 21), // deadline blown
	}
	v := verify(recs)
	if v == nil || v.Rule != RuleTxOnOccupiedChannel {
		t.Fatalf("occupied-channel TX: got %v, want %s", v, RuleTxOnOccupiedChannel)
	}
	if v.Index != 4 {
		t.Fatalf("violation index = %d, want 4", v.Index)
	}
	// Departure clears the rule.
	recs = []trace.Record{
		budget(0, 1, 21, 10*min, min),
		incumbent(sec, 21, 1),
		incumbent(2*sec, 21, 0),
		tx(50*sec, 1, 21),
	}
	if v := verify(recs); v != nil {
		t.Fatalf("TX after incumbent departed flagged: %v", v)
	}
	// Slack widens the cross-clock comparison.
	c := &Checker{Slack: 10 * time.Second}
	c.Feed([]trace.Record{
		budget(0, 1, 21, 10*min, 2*min),
		incumbent(0, 21, 1),
		tx(min+5*sec, 1, 21), // 65 s after arrival, inside 60 s + 10 s slack
	})
	if v := c.First(); v != nil {
		t.Fatalf("slack not applied: %v", v)
	}
}

func TestRenewalAfterExpiry(t *testing.T) {
	recs := []trace.Record{
		budget(0, 1, 21, 30*sec, 30*sec),
		lease(min, 1, core.StateGranted, core.StateRenewing),
	}
	if got := firstRule(t, recs); got != RuleRenewalAfterExpiry {
		t.Fatalf("late renewal: got %q, want %q", got, RuleRenewalAfterExpiry)
	}
	// A grace-period retry is not a renewal-after-expiry: the FSM is
	// already accounting for the failure.
	recs = []trace.Record{
		budget(0, 1, 21, 30*sec, 30*sec),
		lease(min, 1, core.StateGracePeriod, core.StateRenewing),
	}
	if got := firstRule(t, recs); got != "" {
		t.Fatalf("grace retry flagged as %q", got)
	}
}

func TestRestartResetsAP(t *testing.T) {
	recs := []trace.Record{
		budget(0, 1, 21, 5*min, min),
		apLife(sec, 1, 0),
		apLife(2*sec, 1, 1),
		budget(3*sec, 1, 23, 5*min, 3*sec+min),
		tx(4*sec, 1, 23),
	}
	if v := verify(recs); v != nil {
		t.Fatalf("post-restart reacquisition flagged: %v", v)
	}
}

// TestRestartDropsLease: a restart wipes the lease along with the
// radio state, so a transmission after the AP comes back up, on the
// pre-crash lease and inside its budget, is one without a lease.
func TestRestartDropsLease(t *testing.T) {
	recs := []trace.Record{
		budget(0, 1, 21, 5*min, min),
		apLife(sec, 1, 0),
		apLife(2*sec, 1, 1),
		tx(3*sec, 1, 21),
	}
	if got := firstRule(t, recs); got != RuleTxWithoutLease {
		t.Fatalf("TX on the pre-crash lease after restart: got %q, want %q", got, RuleTxWithoutLease)
	}
}

// TestTxPastExpiry: a budget whose vacate-by lies past its own lease
// expiry (a corrupted or fuzzed stream) does not stretch the lease; a
// transmission 1 ns past expiry is one without a lease.
func TestTxPastExpiry(t *testing.T) {
	recs := []trace.Record{
		budget(0, 1, 21, 30*sec, min),
		tx(30*sec, 1, 21), // exactly at expiry: allowed
		tx(30*sec+1, 1, 21),
	}
	v := verify(recs)
	if v == nil || v.Rule != RuleTxWithoutLease {
		t.Fatalf("TX past expiry: got %v, want %s", v, RuleTxWithoutLease)
	}
	if v.Index != 2 {
		t.Fatalf("violation index = %d, want 2 (TX at expiry must pass)", v.Index)
	}
}

func TestPerAPIsolation(t *testing.T) {
	// AP 2's lease must not cover AP 1's transmissions.
	recs := []trace.Record{
		budget(0, 2, 21, 5*min, min),
		tx(sec, 1, 21),
	}
	if got := firstRule(t, recs); got != RuleTxWithoutLease {
		t.Fatalf("cross-AP lease leak: got %q, want %q", got, RuleTxWithoutLease)
	}
}

func TestTotalsAndBound(t *testing.T) {
	c := &Checker{MaxViolations: 2}
	for i := int64(0); i < 5; i++ {
		c.Record(tx(i, 1, 21))
	}
	if c.Total() != 5 {
		t.Fatalf("Total = %d, want 5", c.Total())
	}
	if len(c.Violations()) != 2 {
		t.Fatalf("retained %d violations, want 2", len(c.Violations()))
	}
	if c.Records() != 5 {
		t.Fatalf("Records = %d, want 5", c.Records())
	}
}

func TestUnknownKindsIgnored(t *testing.T) {
	c := &Checker{}
	c.Feed([]trace.Record{
		{T: 0, AP: 1, Kind: trace.KindSimFire},
		{T: 1, AP: 1, Kind: trace.Kind(200), N: 4, Args: [trace.MaxArgs]int64{9, 9, 9, 9}},
		budget(2, 1, 21, 5*min, min),
		tx(3, 1, 21),
	})
	if v := c.First(); v != nil {
		t.Fatalf("unknown kinds broke the model: %v", v)
	}
}
