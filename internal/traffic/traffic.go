// Package traffic generates the two workloads of the paper's
// evaluation (Section 6.3.4): fully backlogged flows for throughput and
// coverage measurements, and a web-like workload — pages composed of
// objects with heavy-tailed sizes separated by think times — for the
// page-load-time experiment of Figure 9c.
package traffic

import (
	"math"
	"math/rand"
	"time"
)

// Flow is one downlink transfer toward a client.
type Flow struct {
	ID       int
	ClientID int
	// Bits is the flow size.
	Bits int64
	// Arrival is when the flow entered the AP queue.
	Arrival time.Duration
	// PageID groups object flows into pages.
	PageID int
}

// WebParams shapes the web workload. Defaults follow the measurements
// the paper cites: a page has a handful of objects, object sizes are
// log-normal with a heavy tail, and think times between pages are
// exponential on the order of tens of seconds.
type WebParams struct {
	// ObjectsPerPageMean is the mean object count (geometric).
	ObjectsPerPageMean float64
	// ObjectSizeLogMean / ObjectSizeLogStd parametrize the log-normal
	// object size in bytes (medians around 10 kB, means ~30 kB).
	ObjectSizeLogMean, ObjectSizeLogStd float64
	// MaxObjectBytes truncates the tail.
	MaxObjectBytes int64
	// ThinkTimeMean separates consecutive pages of one client.
	ThinkTimeMean time.Duration
}

// DefaultWebParams returns the evaluation workload parameters.
func DefaultWebParams() WebParams {
	return WebParams{
		ObjectsPerPageMean: 8,
		ObjectSizeLogMean:  math.Log(12 * 1024), // median 12 kB
		ObjectSizeLogStd:   1.2,
		MaxObjectBytes:     2 << 20,
		ThinkTimeMean:      20 * time.Second,
	}
}

// Page is one generated web page: a burst of object flows.
type Page struct {
	ID      int
	Arrival time.Duration
	Flows   []*Flow
	// TotalBits across objects.
	TotalBits int64
}

// WebGenerator produces a page arrival sequence per client.
type WebGenerator struct {
	Params WebParams
	rng    *rand.Rand
	nextID int
}

// NewWebGenerator builds a generator on the given random stream.
func NewWebGenerator(p WebParams, rng *rand.Rand) *WebGenerator {
	return &WebGenerator{Params: p, rng: rng}
}

// NextPage generates the page a client requests after the given time;
// the returned page's Arrival includes a think-time gap.
func (g *WebGenerator) NextPage(clientID int, after time.Duration) Page {
	think := time.Duration(g.rng.ExpFloat64() * float64(g.Params.ThinkTimeMean))
	arrival := after + think
	// Geometric object count with the configured mean (>= 1).
	n := 1
	p := 1 / g.Params.ObjectsPerPageMean
	for g.rng.Float64() > p && n < 64 {
		n++
	}
	g.nextID++
	pageID := g.nextID
	page := Page{ID: pageID, Arrival: arrival}
	for i := 0; i < n; i++ {
		bytes := int64(math.Exp(g.rng.NormFloat64()*g.Params.ObjectSizeLogStd + g.Params.ObjectSizeLogMean))
		if bytes < 256 {
			bytes = 256
		}
		if bytes > g.Params.MaxObjectBytes {
			bytes = g.Params.MaxObjectBytes
		}
		g.nextID++
		f := &Flow{ID: g.nextID, ClientID: clientID, Bits: bytes * 8, Arrival: arrival, PageID: pageID}
		page.Flows = append(page.Flows, f)
		page.TotalBits += f.Bits
	}
	return page
}

// FlowTracker resolves flow and page completion times from cumulative
// delivered bits on a per-client FIFO queue. Enqueue flows in arrival
// order; report delivered totals monotonically.
type FlowTracker struct {
	// pending flows per client in FIFO order with their cumulative
	// completion thresholds.
	pending map[int][]pendingFlow
	// enqueued cumulative bits per client.
	enqueued map[int]int64
	// page bookkeeping.
	pageFlows  map[int]int
	pageStart  map[int]time.Duration
	pageClient map[int]int
	pages      []CompletedPage
}

type pendingFlow struct {
	flow      *Flow
	threshold int64 // cumulative delivered bits at which it completes
}

// CompletedPage records a fully loaded page.
type CompletedPage struct {
	PageID   int
	ClientID int
	Arrival  time.Duration
	Finished time.Duration
	Bits     int64
}

// LoadTime returns the page-load latency.
func (p CompletedPage) LoadTime() time.Duration { return p.Finished - p.Arrival }

// NewFlowTracker returns an empty tracker.
func NewFlowTracker() *FlowTracker {
	return &FlowTracker{
		pending:    make(map[int][]pendingFlow),
		enqueued:   make(map[int]int64),
		pageFlows:  make(map[int]int),
		pageStart:  make(map[int]time.Duration),
		pageClient: make(map[int]int),
	}
}

// Enqueue registers a flow entering its client's AP queue.
func (t *FlowTracker) Enqueue(f *Flow) {
	t.enqueued[f.ClientID] += f.Bits
	t.pending[f.ClientID] = append(t.pending[f.ClientID], pendingFlow{
		flow:      f,
		threshold: t.enqueued[f.ClientID],
	})
	t.pageFlows[f.PageID]++
	t.pageClient[f.PageID] = f.ClientID
	if _, ok := t.pageStart[f.PageID]; !ok {
		t.pageStart[f.PageID] = f.Arrival
	}
}

// QueuedBits returns the bits a client still has outstanding given the
// delivered total.
func (t *FlowTracker) QueuedBits(clientID int, delivered int64) int64 {
	q := t.enqueued[clientID] - delivered
	if q < 0 {
		return 0
	}
	return q
}

// Progress reports the client's cumulative delivered bits at time now,
// completing any flows whose thresholds were crossed.
func (t *FlowTracker) Progress(clientID int, delivered int64, now time.Duration) {
	q := t.pending[clientID]
	for len(q) > 0 && delivered >= q[0].threshold {
		pf := q[0]
		q = q[1:]
		t.pageFlows[pf.flow.PageID]--
		if t.pageFlows[pf.flow.PageID] == 0 {
			t.pages = append(t.pages, CompletedPage{
				PageID:   pf.flow.PageID,
				ClientID: clientID,
				Arrival:  t.pageStart[pf.flow.PageID],
				Finished: now,
				Bits:     0,
			})
			delete(t.pageFlows, pf.flow.PageID)
			delete(t.pageStart, pf.flow.PageID)
			delete(t.pageClient, pf.flow.PageID)
		}
	}
	t.pending[clientID] = q
}

// CompletedPages returns the fully loaded pages so far.
func (t *FlowTracker) CompletedPages() []CompletedPage { return t.pages }

// OutstandingPage describes a page still loading.
type OutstandingPage struct {
	PageID   int
	ClientID int
	Arrival  time.Duration
}

// OutstandingPages returns pages with flows still queued — the censored
// tail of a page-load-time distribution.
func (t *FlowTracker) OutstandingPages() []OutstandingPage {
	out := make([]OutstandingPage, 0, len(t.pageStart))
	for id, at := range t.pageStart {
		out = append(out, OutstandingPage{PageID: id, ClientID: t.pageClient[id], Arrival: at})
	}
	return out
}
