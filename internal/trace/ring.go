package trace

import (
	"fmt"
	"io"
)

// DefaultRingSize is the ring capacity used when callers pass a
// non-positive size: 8192 records ≈ 512 KiB of buffer, a few spills
// per million records.
const DefaultRingSize = 8192

// RingStats is a counter snapshot of a Ring.
type RingStats struct {
	// Recorded counts every Record call.
	Recorded uint64
	// Dropped counts records overwritten before being read (wrap mode)
	// or discarded after a spill-write failure.
	Dropped uint64
	// Spills counts buffer flushes to the spill writer.
	Spills uint64
}

// Ring is the canonical Recorder: a fixed-capacity buffer of Record
// values with two modes.
//
// In wrap mode (no spill writer) the ring keeps the most recent
// records, overwriting the oldest — the classic flight recorder for
// "what led up to this?" forensics; Snapshot and WriteTo export the
// retained window. In spill mode (SpillTo) a full buffer is encoded
// and flushed to the writer, so the stream on disk is complete — the
// shape runner capture and `cellfi trace diff` rely on.
//
// The record path never allocates in either mode: wrap mode is a
// single slot store, and spill mode reuses one encode buffer for the
// life of the stream. A Ring is owned by one goroutine, like the
// sim.Engine it instruments.
type Ring struct {
	buf   []Record
	start int // index of the oldest retained record (wrap mode)
	n     int // retained (wrap) or pending-spill (spill) record count

	w             io.Writer
	enc           Encoder
	headerWritten bool
	err           error

	stats RingStats
}

// NewRing returns a wrap-mode ring retaining the last `capacity`
// records (DefaultRingSize when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Ring{buf: make([]Record, capacity)}
}

// SpillTo switches the ring to spill mode: whenever the buffer fills,
// its contents are encoded and written to w (the stream header is
// written first). Call before recording; switching modes mid-stream is
// not supported.
func (r *Ring) SpillTo(w io.Writer) {
	r.w = w
}

// Record implements Recorder.
func (r *Ring) Record(rec Record) {
	r.stats.Recorded++
	if r.n == len(r.buf) {
		if r.w != nil {
			r.flush()
		} else {
			// Wrap: overwrite the oldest.
			r.start++
			if r.start == len(r.buf) {
				r.start = 0
			}
			r.n--
			r.stats.Dropped++
		}
	}
	i := r.start + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = rec
	r.n++
}

// flush encodes the pending records and writes them to the spill
// writer. After a write failure the ring keeps counting but discards
// records (the first error is retained for Close/Err).
func (r *Ring) flush() {
	if r.n == 0 {
		return
	}
	if r.err != nil {
		r.stats.Dropped += uint64(r.n)
		r.n = 0
		return
	}
	r.enc.ResetBuf()
	if !r.headerWritten {
		r.enc.AppendHeader()
		r.headerWritten = true
	}
	for i := 0; i < r.n; i++ {
		r.enc.Append(r.buf[i])
	}
	r.n = 0
	r.stats.Spills++
	if _, err := r.w.Write(r.enc.Bytes()); err != nil {
		r.err = fmt.Errorf("trace: spill write: %w", err)
	}
}

// Flush forces pending records out to the spill writer (no-op in wrap
// mode) and returns the first write error, if any.
func (r *Ring) Flush() error {
	if r.w != nil {
		// An empty stream still gets a header so the file decodes.
		if !r.headerWritten && r.err == nil {
			r.enc.AppendHeader()
			r.headerWritten = true
			if _, err := r.w.Write(r.enc.Bytes()); err != nil {
				r.err = fmt.Errorf("trace: spill write: %w", err)
			}
			r.enc.ResetBuf()
		}
		r.flush()
	}
	return r.err
}

// Close flushes and, when the spill writer is an io.Closer (the usual
// *os.File), closes it.
func (r *Ring) Close() error {
	err := r.Flush()
	if c, ok := r.w.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: close spill: %w", cerr)
		}
	}
	return err
}

// Err returns the first spill-write error, if any.
func (r *Ring) Err() error { return r.err }

// Stats returns a snapshot of the ring's counters.
func (r *Ring) Stats() RingStats { return r.stats }

// Snapshot returns the retained records, oldest first. In spill mode
// it returns only records not yet flushed.
func (r *Ring) Snapshot() []Record {
	out := make([]Record, r.n)
	for i := 0; i < r.n; i++ {
		j := r.start + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		out[i] = r.buf[j]
	}
	return out
}

// WriteTo encodes the retained window as a complete stream (header
// plus records) to w — the wrap-mode export path. It implements
// io.WriterTo.
func (r *Ring) WriteTo(w io.Writer) (int64, error) {
	data := Marshal(r.Snapshot())
	n, err := w.Write(data)
	return int64(n), err
}
