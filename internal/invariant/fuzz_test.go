package invariant

import (
	"testing"
	"time"

	"cellfi/internal/trace"
)

// FuzzVerify feeds arbitrary bytes through the trace decoder and the
// invariant checker — the exact pipeline `cellfi trace verify` runs on
// an untrusted file. Neither stage may panic: Decode already promises
// an error instead (FuzzDecode in internal/trace), and the checker
// must absorb whatever records a corrupted-but-decodable stream
// yields — wild arg values, impossible state edges, inverted budgets,
// negative channels.
func FuzzVerify(f *testing.F) {
	// Seed corpus: a clean run, each violation class, a corrupted tail
	// and a truncated stream.
	clean := []trace.Record{
		budget(0, 1, 21, 5*min, min),
		tx(sec, 1, 21),
		incumbent(2*sec, 22, 1),
		lease(3*sec, 1, 0, 2),
		apLife(4*sec, 2, 0),
		apLife(5*sec, 2, 1),
	}
	violating := []trace.Record{
		budget(0, 1, 21, 5*min, min),
		tx(min+sec, 1, 21),   // past budget
		tx(min+2*sec, 3, 21), // no lease
		incumbent(0, 21, 1),  // occupied
		{T: 1, Kind: trace.KindLeaseBudget, N: 3, // inverted budget
			Args: [trace.MaxArgs]int64{-5, 10, 20}},
	}
	f.Add(trace.Marshal(clean))
	f.Add(trace.Marshal(violating))
	enc := trace.Marshal(clean)
	f.Add(enc[:len(enc)/2]) // truncated mid-stream
	corrupt := append([]byte(nil), enc...)
	for i := len(corrupt) / 2; i < len(corrupt); i += 3 {
		corrupt[i] ^= 0x5a
	}
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add([]byte("CFTR"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _ := trace.Decode(data)
		c := &Checker{Deadline: time.Second, Slack: time.Millisecond}
		c.Feed(recs)
		if c.Records() != len(recs) {
			t.Fatalf("checker consumed %d of %d records", c.Records(), len(recs))
		}
		if c.Total() < len(c.Violations()) {
			t.Fatalf("total %d < retained %d", c.Total(), len(c.Violations()))
		}
	})
}
