package trace

import (
	"io"
	"testing"
)

// BenchmarkRingRecordWrap is the raw record path in wrap mode: one
// slot store per op. This is the per-event cost an instrumented hot
// loop pays on top of the nil check (the benchmark's
// trace.ring_record_ns).
func BenchmarkRingRecordWrap(b *testing.B) {
	r := NewRing(8192)
	rc := Record{T: 1, AP: 3, Kind: KindSimFire}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.T = int64(i)
		r.Record(rc)
	}
}

// BenchmarkRingRecordSpill includes the amortized encode+write cost of
// spilling (to io.Discard, isolating CPU from disk).
func BenchmarkRingRecordSpill(b *testing.B) {
	r := NewRing(8192)
	r.SpillTo(io.Discard)
	rc := Record{T: 1, AP: 3, Kind: KindIMHop, N: 3, Args: [MaxArgs]int64{-1, 5, HopCauseBucket}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.T = int64(i)
		r.Record(rc)
	}
}

// BenchmarkEncodeRecord measures the codec alone.
func BenchmarkEncodeRecord(b *testing.B) {
	var e Encoder
	e.AppendHeader()
	rc := Record{T: 1, AP: 3, Kind: KindIMShare, N: 3, Args: [MaxArgs]int64{2, 0x1555, 7}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.T = int64(i)
		e.Append(rc)
		if len(e.Bytes()) > 1<<20 {
			e.ResetBuf()
		}
	}
}

// BenchmarkDecodeRecord measures the decode side over a pre-encoded
// stream.
func BenchmarkDecodeRecord(b *testing.B) {
	recs := make([]Record, 4096)
	for i := range recs {
		recs[i] = Record{T: int64(i) * 1000, AP: int32(i % 16), Kind: KindWifiTX, N: 2,
			Args: [MaxArgs]int64{WifiFrameData, 1500000}}
	}
	data := Marshal(recs)
	b.ReportAllocs()
	b.ResetTimer()
	d, _ := NewDecoder(data)
	for i := 0; i < b.N; i++ {
		if _, err := d.Next(); err == io.EOF {
			d, _ = NewDecoder(data)
		} else if err != nil {
			b.Fatal(err)
		}
	}
}
