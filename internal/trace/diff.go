package trace

import (
	"fmt"
	"io"
)

// Replay-diff: the byte-determinism contract says two runs of the same
// seeded scenario produce identical traces. When they do not, Diff
// localizes the divergence to the first differing record — timestamp,
// AP and kind — instead of a boolean test failure.

// DiffResult reports how two streams compare.
type DiffResult struct {
	// Identical is true when both streams decode cleanly to the same
	// record sequence.
	Identical bool
	// Index is the position of the first divergence (record index in
	// both streams). Valid only when !Identical.
	Index int
	// A and B are the diverging records; nil means that stream ended
	// (or failed to decode) at Index.
	A, B *Record
	// CountA and CountB are the total records decoded from each
	// stream (up to the divergence point).
	CountA, CountB int
	// ErrA and ErrB carry decode errors, if a stream was malformed.
	ErrA, ErrB error
}

// String renders the result in the form `cellfi trace diff` prints.
func (d DiffResult) String() string {
	if d.Identical {
		return fmt.Sprintf("identical (%d records)", d.CountA)
	}
	describe := func(r *Record, err error) string {
		switch {
		case err != nil:
			return fmt.Sprintf("decode error: %v", err)
		case r == nil:
			return "stream ended"
		default:
			return r.String()
		}
	}
	return fmt.Sprintf("first divergence at record %d:\n  a: %s\n  b: %s",
		d.Index, describe(d.A, d.ErrA), describe(d.B, d.ErrB))
}

// Diff compares two encoded streams record by record and returns the
// first divergence. Streams of different lengths diverge at the end of
// the shorter one; a stream that fails to decode diverges at the bad
// record with the error attached.
func Diff(a, b []byte) DiffResult {
	da, errA := NewDecoder(a)
	db, errB := NewDecoder(b)
	res := DiffResult{ErrA: errA, ErrB: errB}
	if errA != nil || errB != nil {
		return res
	}
	for i := 0; ; i++ {
		ra, ea := da.Next()
		rb, eb := db.Next()
		res.CountA, res.CountB = da.Count(), db.Count()
		if ea == io.EOF && eb == io.EOF {
			res.Identical = true
			return res
		}
		res.Index = i
		if ea != nil || eb != nil {
			if ea == nil {
				res.A = &ra
			} else if ea != io.EOF {
				res.ErrA = ea
			}
			if eb == nil {
				res.B = &rb
			} else if eb != io.EOF {
				res.ErrB = eb
			}
			return res
		}
		if ra != rb {
			res.A, res.B = &ra, &rb
			return res
		}
	}
}
