// Package profiling wires the standard Go profilers into the repo's
// binaries with one flag set: -cpuprofile, -memprofile and -trace.
// Profiles feed `go tool pprof` / `go tool trace` against the hot
// paths the benchmark's per-layer metrics track (bench/README.md).
// Binaries call Start from a run() int that main wraps in os.Exit, so
// the deferred stop flushes on every exit path.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Config holds the requested profile outputs. Empty paths disable the
// corresponding profiler.
type Config struct {
	CPUProfile string
	MemProfile string
	Trace      string
}

// AddFlags registers -cpuprofile, -memprofile and -trace on the default
// flag set and returns the Config they populate. Call before
// flag.Parse.
func AddFlags() *Config {
	c := &Config{}
	flag.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this path")
	flag.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this path on exit")
	flag.StringVar(&c.Trace, "trace", "", "write a runtime execution trace to this path")
	return c
}

// Start begins the requested profilers and returns a stop function that
// flushes them; call it (usually via defer) before the process exits.
// With no profiles requested it is a no-op.
func (c *Config) Start() (stop func(), err error) {
	var cpuFile, traceFile *os.File
	cleanup := func() {
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
	}
	if c.CPUProfile != "" {
		cpuFile, err = os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: start cpu profile: %w", err)
		}
	}
	if c.Trace != "" {
		traceFile, err = os.Create(c.Trace)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			traceFile = nil
			cleanup()
			return nil, fmt.Errorf("profiling: start trace: %w", err)
		}
	}
	return func() {
		cleanup()
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so live objects dominate
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "profiling: write heap profile: %v\n", err)
			}
		}
	}, nil
}
