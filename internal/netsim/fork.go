package netsim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Step's two per-cell kernels — observing for the controller update
// (observeCell) and serving (serveCell) — read only shared state and
// write only their own cell's slots, so they fork-join over cells.
// Everything that draws randomness or mutates shared state stays
// serial in ascending cell order, and each client's arithmetic is the
// same whichever worker runs it: a run's outputs do not depend on the
// core count.

// cellGrain is how many consecutive cells a worker claims at a time.
const cellGrain = 4

// kernelScratch is one worker's writable scratch for the per-cell
// kernels: interferers' filtered transmitter list, sinrBlocks' result
// and activeNear's grid answer.
type kernelScratch struct {
	nearTx, clientScratch []int32
	blockSig, blockDen    [blocksPerEpoch]float64
	// Keeps neighbouring workers' scratch off a shared cache line.
	_ [64]byte
}

// forCells calls fn(n, ks, i) once for every cell i, where ks is the
// calling worker's scratch. Up to GOMAXPROCS workers, the calling
// goroutine among them, claim cellGrain cells at a time from a shared
// counter, so when every core is already busy the caller simply does
// the work. With fewer than two chunks of cells, or one core, it runs
// on the caller alone. fn may write only cell i's own state and ks,
// and must not rebuild the fade-row table (the caller builds it first).
func (n *Network) forCells(fn func(n *Network, ks *kernelScratch, i int)) {
	workers := min(runtime.GOMAXPROCS(0), (len(n.Cells)+cellGrain-1)/cellGrain)
	if workers < 2 {
		for i := range n.Cells {
			fn(n, &n.scratch[0], i)
		}
		return
	}
	for len(n.scratch) < workers {
		n.scratch = append(n.scratch, kernelScratch{})
	}
	f := &cellFork{n: n, fn: fn}
	f.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer f.wg.Done()
			f.work(&n.scratch[w])
		}()
	}
	f.work(&n.scratch[0])
	f.wg.Wait()
}

// cellFork is one forCells pass, shared by its workers.
type cellFork struct {
	n    *Network
	fn   func(n *Network, ks *kernelScratch, i int)
	next atomic.Int64 // first cell of the next unclaimed chunk
	wg   sync.WaitGroup
}

// work runs chunks of cells on ks until none is left.
func (f *cellFork) work(ks *kernelScratch) {
	nCells := len(f.n.Cells)
	for {
		hi := int(f.next.Add(cellGrain))
		if hi-cellGrain >= nCells {
			return
		}
		for i := hi - cellGrain; i < min(hi, nCells); i++ {
			f.fn(f.n, ks, i)
		}
	}
}
