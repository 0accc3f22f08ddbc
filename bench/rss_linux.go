//go:build linux

package main

import "syscall"

// peakRSSMB reports this process's peak resident set in MB (ru_maxrss
// is in kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return heapSysMB()
	}
	return float64(ru.Maxrss) / 1024
}
