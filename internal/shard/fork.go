package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Fork runs one fork-join pass over the index range [0, n): fn(w, lo,
// hi) is called for consecutive chunks [lo, hi) of grain indices that
// together cover the range once, where w is the calling worker's own
// partials, (*ws)[i] for worker i. Up to GOMAXPROCS workers claim
// chunks from a shared counter, and the calling goroutine is worker 0,
// so when every core is already busy the caller simply does the work.
// With fewer than two chunks, or one core, worker 0 runs the whole
// range as one call. Fork grows *ws to the worker count before any
// worker starts and returns after every chunk has run; no goroutine
// outlives the pass.
//
// fn may write only its own indices' state and *w. Callers that fold
// the partials afterwards in worker order get a result that does not
// depend on which worker ran which chunk as long as every folded
// quantity is order-invariant (integer sums, sketch bucket counts).
// Pass a func value built once: a method value or closure built per
// call escapes to the workers and allocates.
func Fork[W any](ws *[]W, n, grain int, fn func(w *W, lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), (n+grain-1)/grain)
	for len(*ws) < max(workers, 1) {
		var zero W
		*ws = append(*ws, zero)
	}
	if workers < 2 {
		fn(&(*ws)[0], 0, n)
		return
	}
	f := &fork[W]{fn: fn, n: n, grain: grain}
	f.wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func() {
			defer f.wg.Done()
			f.work(&(*ws)[i])
		}()
	}
	f.work(&(*ws)[0])
	f.wg.Wait()
}

// fork is one Fork pass, shared by its workers.
type fork[W any] struct {
	fn       func(w *W, lo, hi int)
	n, grain int
	next     atomic.Int64 // first index of the next unclaimed chunk
	wg       sync.WaitGroup
}

// work runs chunks on w until none is left.
func (f *fork[W]) work(w *W) {
	for {
		hi := int(f.next.Add(int64(f.grain)))
		lo := hi - f.grain
		if lo >= f.n {
			return
		}
		f.fn(w, lo, min(hi, f.n))
	}
}
