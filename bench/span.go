package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the bench made into a layer. Start and End
// are nanoseconds since the tracer was created; Parent is the ID of the
// span that caused it (0 = none) and Run groups the spans of one block.
type span struct {
	ID     int32
	Name   string
	Start  int64
	End    int64
	Parent int32
	Run    int32
}

// tracer records spans in memory; a nil *tracer records nothing, so
// untraced runs pay one nil check per call site. Spans are kept in
// per-goroutine buffers (spanBuf) so the load workers never contend.
type tracer struct {
	t0   time.Time
	next atomic.Int32
	mu   sync.Mutex
	bufs []*spanBuf
}

// spanBuf is a single-goroutine span sink.
type spanBuf struct {
	tr    *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// buf returns a fresh single-goroutine buffer (nil on a nil tracer).
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{tr: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// add records a finished span and returns its ID.
func (b *spanBuf) add(name string, parent, run int32, start, end time.Time) int32 {
	if b == nil {
		return 0
	}
	id := b.open()
	b.close(id, name, parent, run, start, end)
	return id
}

// open reserves an ID for a span whose children are recorded before it
// closes; close records it.
func (b *spanBuf) open() int32 {
	if b == nil {
		return 0
	}
	return b.tr.next.Add(1)
}

func (b *spanBuf) close(id int32, name string, parent, run int32, start, end time.Time) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{ID: id, Name: name, Parent: parent, Run: run,
		Start: start.Sub(b.tr.t0).Nanoseconds(), End: end.Sub(b.tr.t0).Nanoseconds()})
}

// all returns every recorded span ordered by start time.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// layerTime is the aggregate of all spans of one name.
type layerTime struct {
	Name    string
	Count   int
	TotalNS int64
	SelfNS  int64
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of that interval its child spans cover;
// children may overlap each other (parallel workers under one block),
// so the covered part is the union of their intervals clipped to the
// parent.
func selfTimes(spans []span) []layerTime {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalNS += dur
		lt.SelfNS += dur - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the kids cover.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if curE < curS || s > curE { // disjoint from the running interval
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeSpans writes the spans compactly: a name table plus one
// [name, start_ns, end_ns, parent, run, id] row per span.
func writeSpans(path string, spans []span) error {
	index := make(map[string]int)
	var names []string
	rows := make([][6]int64, len(spans))
	for i, s := range spans {
		ni, ok := index[s.Name]
		if !ok {
			ni = len(names)
			index[s.Name] = ni
			names = append(names, s.Name)
		}
		rows[i] = [6]int64{int64(ni), s.Start, s.End, int64(s.Parent), int64(s.Run), int64(s.ID)}
	}
	raw, err := json.Marshal(struct {
		Columns []string   `json:"columns"`
		Names   []string   `json:"names"`
		Spans   [][6]int64 `json:"spans"`
	}{[]string{"name", "start_ns", "end_ns", "parent", "run", "id"}, names, rows})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
