package netsim

// Step's two per-cell kernels — observing for the controller update
// (observeCell) and serving (serveCell) — read only shared state and
// write only their own cell's slots, so they fork-join over cells
// (shard.Fork). Everything that draws randomness or mutates shared
// state stays serial in ascending cell order, and each client's
// arithmetic is the same whichever worker runs it: a run's outputs do
// not depend on the core count.

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

// overCells adapts a per-cell kernel to shard.Fork's chunk signature.
// New builds the two adapters once, so a Step's passes allocate no
// func value. kernel may write only cell i's own state and ks, and must
// not rebuild the fade-row table (Step builds it before the passes).
func (n *Network) overCells(kernel func(n *Network, ks *kernelScratch, i int)) func(ks *kernelScratch, lo, hi int) {
	return func(ks *kernelScratch, lo, hi int) {
		for i := lo; i < hi; i++ {
			kernel(n, ks, i)
		}
	}
}
