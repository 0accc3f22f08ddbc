package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

func rec(t int64, ap int32, k Kind, args ...int64) Record {
	r := Record{T: t, AP: ap, Kind: k, N: uint8(len(args))}
	copy(r.Args[:], args)
	return r
}

func sampleRecords() []Record {
	return []Record{
		rec(0, -1, KindSimFire),
		rec(1_000_000, 3, KindIMShare, 2, 0b101, 2),
		rec(1_000_000, 3, KindIMHop, -1, 5, HopCauseShareGrow),
		rec(2_000_000, 0, KindWifiTX, WifiFrameData, 1_500_000),
		rec(1_500_000, 7, KindLease, 1, 2, 0, 21), // out-of-order clock is legal
		rec(math.MaxInt64, 12, KindLTEGrant, 100, 0x1fff, 37_000),
		rec(math.MinInt64, -1, KindPAWSQuery, PAWSMethodGetSpectrum, -1, 3),
	}
}

func TestRoundTrip(t *testing.T) {
	want := sampleRecords()
	got, err := Decode(Marshal(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestEmptyStream(t *testing.T) {
	got, err := Decode(Marshal(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: got %v, %v", got, err)
	}
}

func TestHeaderErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short magic", []byte("CF"), ErrTruncated},
		{"bad magic", []byte("XXXX\x01records"), ErrHeader},
		{"bad version", []byte("CFTR\x63"), ErrVersion},
	}
	for _, c := range cases {
		if _, err := Decode(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestMalformedRecords(t *testing.T) {
	valid := Marshal(sampleRecords())

	// Every truncation of a valid stream must error (or decode a clean
	// prefix when cut exactly at a record boundary), never panic.
	for cut := headerLen; cut < len(valid); cut++ {
		recs, err := Decode(valid[:cut])
		if err == nil && len(recs) == len(sampleRecords()) {
			t.Fatalf("truncation at %d decoded the full stream", cut)
		}
	}

	// Reserved kind zero.
	bad := append([]byte{}, Marshal(nil)...)
	bad = append(bad, 0 /* delta */, 0 /* kind */, 0, 0)
	if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("kind 0: err = %v, want ErrCorrupt", err)
	}

	// Oversized arg count.
	bad = append([]byte{}, Marshal(nil)...)
	bad = append(bad, 0, byte(KindSimFire), 0, MaxArgs+1)
	if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("argc: err = %v, want ErrCorrupt", err)
	}

	// Overlong varint (11 continuation bytes).
	bad = append([]byte{}, Marshal(nil)...)
	for i := 0; i < 11; i++ {
		bad = append(bad, 0xff)
	}
	if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("overlong varint: err = %v, want ErrCorrupt", err)
	}

	// AP outside int32.
	var e Encoder
	e.AppendHeader()
	e.buf = append(e.buf, 0, byte(KindSimFire))
	e.buf = appendZigzag(e.buf, int64(1)<<40)
	e.buf = append(e.buf, 0)
	if _, err := Decode(e.buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge AP: err = %v, want ErrCorrupt", err)
	}
}

// appendZigzag mirrors the encoder's varint helper for hand-built
// malformed streams.
func appendZigzag(buf []byte, v int64) []byte {
	u := zigzag(v)
	for u >= 0x80 {
		buf = append(buf, byte(u)|0x80)
		u >>= 7
	}
	return append(buf, byte(u))
}

// Unknown kinds decode (self-describing layout) so a newer writer's
// stream still dumps on an older reader.
func TestUnknownKindDecodes(t *testing.T) {
	r := rec(5, 2, Kind(200), 1, 2)
	got, err := Decode(Marshal([]Record{r}))
	if err != nil || len(got) != 1 || got[0] != r {
		t.Fatalf("unknown kind: got %v, %v", got, err)
	}
	if got[0].Kind.String() != "kind(200)" {
		t.Fatalf("unknown kind name = %q", got[0].Kind.String())
	}
}

func TestKindNames(t *testing.T) {
	for k, name := range kindNames {
		got, ok := ParseKind(name)
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", name, got, ok)
		}
		if k.String() != name {
			t.Errorf("%v.String() = %q, want %q", uint8(k), k.String(), name)
		}
	}
	if _, ok := ParseKind("nope"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(rec(int64(i), 0, KindSimFire))
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d records, want 4", len(snap))
	}
	for i, rc := range snap {
		if rc.T != int64(6+i) {
			t.Fatalf("snapshot[%d].T = %d, want %d", i, rc.T, 6+i)
		}
	}
	st := r.Stats()
	if st.Recorded != 10 || st.Dropped != 6 || st.Spills != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// WriteTo exports the retained window as a decodable stream.
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := Decode(buf.Bytes())
	if err != nil || len(recs) != 4 || recs[0].T != 6 {
		t.Fatalf("exported window: %v, %v", recs, err)
	}
}

func TestRingSpillStreamIsComplete(t *testing.T) {
	var buf bytes.Buffer
	r := NewRing(8)
	r.SpillTo(&buf)
	const total = 100
	for i := 0; i < total; i++ {
		r.Record(rec(int64(i), int32(i%3), KindIMHop, -1, int64(i), HopCauseBucket))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("decode spilled stream: %v", err)
	}
	if len(recs) != total {
		t.Fatalf("spilled %d records, want %d", len(recs), total)
	}
	for i, rc := range recs {
		if rc.T != int64(i) || rc.Args[1] != int64(i) {
			t.Fatalf("record %d corrupted: %+v", i, rc)
		}
	}
	st := r.Stats()
	if st.Recorded != total || st.Dropped != 0 || st.Spills == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRingSpillEmptyStreamHasHeader(t *testing.T) {
	var buf bytes.Buffer
	r := NewRing(8)
	r.SpillTo(&buf)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Decode(buf.Bytes())
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty spill: %v, %v", recs, err)
	}
}

type failWriter struct{ calls int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.calls++
	return 0, errors.New("disk full")
}

func TestRingSpillWriteFailure(t *testing.T) {
	w := &failWriter{}
	r := NewRing(2)
	r.SpillTo(w)
	for i := 0; i < 10; i++ {
		r.Record(rec(int64(i), 0, KindSimFire))
	}
	if err := r.Close(); err == nil {
		t.Fatal("write failure not surfaced by Close")
	}
	if err := r.Flush(); err == nil {
		t.Fatal("Flush after the failure lost it")
	}
	if w.calls != 1 {
		t.Fatalf("writer called %d times after failing, want 1", w.calls)
	}
	if st := r.Stats(); st.Dropped == 0 {
		t.Fatalf("records after a failed spill not counted dropped: %+v", st)
	}
}

func TestDiff(t *testing.T) {
	base := sampleRecords()
	a := Marshal(base)

	if d := Diff(a, Marshal(base)); !d.Identical || d.CountA != len(base) {
		t.Fatalf("identical streams: %+v", d)
	}

	// One changed arg diverges at that record.
	mod := append([]Record{}, base...)
	mod[3].Args[1] = 999
	d := Diff(a, Marshal(mod))
	if d.Identical || d.Index != 3 || d.A == nil || d.B == nil {
		t.Fatalf("modified stream: %+v", d)
	}
	if d.A.Kind != KindWifiTX || d.B.Args[1] != 999 {
		t.Fatalf("divergence records wrong: a=%v b=%v", d.A, d.B)
	}

	// A shorter stream diverges where it ends.
	d = Diff(a, Marshal(base[:2]))
	if d.Identical || d.Index != 2 || d.A == nil || d.B != nil {
		t.Fatalf("short stream: %+v", d)
	}

	// A corrupt stream carries the decode error.
	corrupt := append([]byte{}, a...)
	corrupt = corrupt[:len(corrupt)-1]
	d = Diff(a, corrupt)
	if d.Identical || d.ErrB == nil {
		t.Fatalf("corrupt stream: %+v", d)
	}

	// Header-level failure.
	if d := Diff(a, []byte("junk")); d.Identical || d.ErrB == nil {
		t.Fatalf("bad header: %+v", d)
	}
}

func TestDiffString(t *testing.T) {
	base := sampleRecords()
	if s := Diff(Marshal(base), Marshal(base)).String(); s != "identical (7 records)" {
		t.Fatalf("identical string = %q", s)
	}
	mod := append([]Record{}, base...)
	mod[1].AP = 9
	s := Diff(Marshal(base), Marshal(mod)).String()
	for _, want := range []string{"record 1", "im-share", "ap=3", "ap=9"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Fatalf("diff string %q missing %q", s, want)
		}
	}
}

func TestRecordString(t *testing.T) {
	r := rec(1500, 4, KindIMHop, 2, 7, HopCausePack)
	if got := r.String(); got != "t=1500 ap=4 im-hop a0=2 a1=7 a2=3" {
		t.Fatalf("Record.String() = %q", got)
	}
}

// The record path must not allocate in either mode.
func TestRecordPathZeroAllocs(t *testing.T) {
	wrap := NewRing(64)
	spill := NewRing(64)
	spill.SpillTo(io.Discard)
	// Pre-warm the spill encoder so its buffer is grown.
	for i := 0; i < 256; i++ {
		spill.Record(rec(int64(i), 0, KindSimFire))
	}
	for name, r := range map[string]*Ring{"wrap": wrap, "spill": spill} {
		allocs := testing.AllocsPerRun(1000, func() {
			r.Record(rec(1, 2, KindWifiTX, WifiFrameData, 100))
		})
		if allocs != 0 {
			t.Errorf("%s-mode Record: %.1f allocs/op, want 0", name, allocs)
		}
	}
}
