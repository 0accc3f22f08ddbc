package traffic

import (
	"math/rand"
	"testing"
	"time"
)

func TestWebGeneratorShapes(t *testing.T) {
	g := NewWebGenerator(DefaultWebParams(), rand.New(rand.NewSource(1)))
	var objects, pages int
	var totalBits int64
	var at time.Duration
	for i := 0; i < 2000; i++ {
		p := g.NextPage(1, at)
		if p.Arrival < at {
			t.Fatal("page arrived before its think time started")
		}
		if len(p.Flows) == 0 {
			t.Fatal("empty page")
		}
		var sum int64
		for _, f := range p.Flows {
			if f.Bits < 256*8 {
				t.Fatalf("object below minimum size: %d bits", f.Bits)
			}
			if f.Bits > DefaultWebParams().MaxObjectBytes*8 {
				t.Fatalf("object above cap: %d bits", f.Bits)
			}
			if f.PageID != p.ID {
				t.Fatal("flow not linked to its page")
			}
			sum += f.Bits
		}
		if sum != p.TotalBits {
			t.Fatal("page TotalBits inconsistent")
		}
		objects += len(p.Flows)
		pages++
		totalBits += p.TotalBits
		at = p.Arrival
	}
	meanObjects := float64(objects) / float64(pages)
	if meanObjects < 5 || meanObjects > 12 {
		t.Errorf("mean objects/page = %g, want around 8", meanObjects)
	}
	meanPageKB := float64(totalBits) / 8 / 1024 / float64(pages)
	if meanPageKB < 80 || meanPageKB > 2000 {
		t.Errorf("mean page size = %g kB; web pages run hundreds of kB", meanPageKB)
	}
	meanThink := at.Seconds() / float64(pages)
	if meanThink < 10 || meanThink > 35 {
		t.Errorf("mean inter-page gap = %gs, want around 20", meanThink)
	}
}

func TestWebGeneratorUniqueIDs(t *testing.T) {
	g := NewWebGenerator(DefaultWebParams(), rand.New(rand.NewSource(2)))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		p := g.NextPage(1, 0)
		if seen[p.ID] {
			t.Fatal("duplicate page ID")
		}
		seen[p.ID] = true
		for _, f := range p.Flows {
			if seen[f.ID] {
				t.Fatal("duplicate flow ID")
			}
			seen[f.ID] = true
		}
	}
}

func TestFlowTrackerFIFOCompletion(t *testing.T) {
	tr := NewFlowTracker()
	f1 := &Flow{ID: 1, ClientID: 9, Bits: 1000, Arrival: 0, PageID: 100}
	f2 := &Flow{ID: 2, ClientID: 9, Bits: 500, Arrival: 0, PageID: 100}
	tr.Enqueue(f1)
	tr.Enqueue(f2)

	tr.Progress(9, 999, time.Second)
	if got := len(tr.pending[9]); got != 2 {
		t.Fatalf("%d of 2 flows pending at 999/1000 bits", got)
	}
	tr.Progress(9, 1000, 2*time.Second)
	if q := tr.pending[9]; len(q) != 1 || q[0].flow.ID != 2 {
		t.Fatalf("flow 1 not completed first: pending %+v", q)
	}
	if len(tr.CompletedPages()) != 0 {
		t.Fatal("page completed with a flow outstanding")
	}
	tr.Progress(9, 1500, 3*time.Second)
	if got := len(tr.pending[9]); got != 0 {
		t.Fatalf("flows pending = %d, want 0", got)
	}
	pages := tr.CompletedPages()
	if len(pages) != 1 || pages[0].PageID != 100 {
		t.Fatalf("pages = %+v", pages)
	}
	if pages[0].LoadTime() != 3*time.Second {
		t.Fatalf("page load time = %v, want 3s", pages[0].LoadTime())
	}
}

func TestFlowTrackerMultipleClients(t *testing.T) {
	tr := NewFlowTracker()
	tr.Enqueue(&Flow{ID: 1, ClientID: 1, Bits: 100, PageID: 10})
	tr.Enqueue(&Flow{ID: 2, ClientID: 2, Bits: 100, PageID: 20})
	tr.Progress(1, 100, time.Second)
	if len(tr.CompletedPages()) != 1 {
		t.Fatal("client 1's page should be done")
	}
	if len(tr.pending[2]) != 1 {
		t.Fatal("client 2's queue touched by client 1's progress")
	}
}

func TestFlowTrackerCrossPageFIFO(t *testing.T) {
	tr := NewFlowTracker()
	// Two pages' flows interleaved in one client queue.
	tr.Enqueue(&Flow{ID: 1, ClientID: 1, Bits: 100, PageID: 10, Arrival: 0})
	tr.Enqueue(&Flow{ID: 2, ClientID: 1, Bits: 100, PageID: 11, Arrival: time.Second})
	tr.Enqueue(&Flow{ID: 3, ClientID: 1, Bits: 100, PageID: 10, Arrival: 0})
	tr.Progress(1, 200, 2*time.Second)
	if len(tr.CompletedPages()) != 1 || tr.CompletedPages()[0].PageID != 11 {
		t.Fatalf("pages after 200 bits: %+v", tr.CompletedPages())
	}
	tr.Progress(1, 300, 3*time.Second)
	if len(tr.CompletedPages()) != 2 {
		t.Fatal("page 10 incomplete after all bits delivered")
	}
	for _, p := range tr.CompletedPages() {
		if p.PageID == 10 && p.Finished != 3*time.Second {
			t.Fatalf("page 10 finished at %v, want 3s", p.Finished)
		}
	}
}
