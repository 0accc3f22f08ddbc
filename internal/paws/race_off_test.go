//go:build !race

package paws

// raceEnabled reports whether the race detector instruments this build;
// allocation counts skip themselves when it does (it drops
// sync.Pool entries at random).
const raceEnabled = false
