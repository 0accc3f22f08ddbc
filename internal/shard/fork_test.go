package shard

import (
	"runtime"
	"testing"
)

// Fork covers [0, n) exactly once in grain-sized chunks, each worker
// writing only its own partial; summed in worker order the partials
// equal the serial answer. One chunk, or one core, is a single call on
// worker 0.
func TestForkCoversRangeOnce(t *testing.T) {
	type part struct{ calls, sum int }
	for _, c := range []struct{ procs, n, grain, workers int }{
		{1, 1000, 8, 1},
		{4, 8, 8, 1},
		{4, 9, 8, 2},
		{4, 1000, 8, 4},
		{4, 0, 8, 1},
	} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			seen := make([]int, c.n)
			var ws []part
			Fork(&ws, c.n, c.grain, func(p *part, lo, hi int) {
				p.calls++
				for i := lo; i < hi; i++ {
					seen[i]++
					p.sum += i
				}
			})
			if len(ws) != c.workers {
				t.Fatalf("%+v: %d workers' partials, want %d", c, len(ws), c.workers)
			}
			for i, k := range seen {
				if k != 1 {
					t.Fatalf("%+v: index %d ran %d times", c, i, k)
				}
			}
			sum, calls := 0, 0
			for _, p := range ws {
				sum += p.sum
				calls += p.calls
			}
			if want := c.n * (c.n - 1) / 2; sum != want {
				t.Fatalf("%+v: partials sum to %d, want %d", c, sum, want)
			}
			if c.workers == 1 && calls != 1 {
				t.Fatalf("%+v: %d calls on the serial path, want 1", c, calls)
			}
		}()
	}
}
