// Command cellfi is the one entry point to the CellFi reproduction: the
// simulators behind the paper's figures, the flight-recorder decoder,
// the access point's control plane, the PAWS spectrum database and its
// load generator, each a verb.
//
// Usage:
//
//	cellfi [-cpuprofile F] [-memprofile F] [-trace F] <verb> [flags] [args]
//
// Run `cellfi <verb> -h` for a verb's flags. The profile flags come
// before the verb and apply to whichever verb runs; the profiles are
// flushed on every exit path.
//
// Exit status is the same for every verb: 0 on success and after -h;
// 1 on a runtime failure, an invariant violation, a `trace diff`
// divergence, or a `metro` run slower than real time; 2 on an unknown
// verb, a bad flag or a bad value.
//
// SIGINT and SIGTERM cancel the context every verb runs under: `ap`
// vacates and sends its cessation notify, `db` drains in-flight
// requests, and `sim`, `sweep` and `experiments` start no further run
// and exit 1. A second signal kills the process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"syscall"
)

const (
	exitFailure = 1 // runtime failure, invariant violation, divergence
	exitUsage   = 2 // unknown verb, bad flag or bad value
)

// verbs is the command table, in the order usage lists it.
var verbs = []struct {
	name, synopsis string
	run            func(ctx context.Context, args []string, stdout, stderr io.Writer) int
}{
	{"sim", "run one interference-management scenario and print per-client results", runSim},
	{"sweep", "run a grid of scenarios and print one CSV row per configuration", runSweep},
	{"map", "render an ASCII best-server SINR map of a deployment", runMap},
	{"experiments", "regenerate the paper's tables and figures", runExperiments},
	{"trace", "dump, summarize, render, diff or verify flight-recorder streams", runTrace},
	{"ap", "run an access point's control plane against a PAWS database", runAP},
	{"db", "serve a PAWS spectrum database over HTTP", runDB},
	{"load", "drive a PAWS database with a synthetic fleet and report throughput", runLoad},
	{"metro", "simulate one city-scale diurnal cycle and report the realtime factor", runMetro},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// The first signal asks the verb to drain; restoring the default
	// handler then lets a second signal kill a drain that hangs.
	context.AfterFunc(ctx, stop)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses the root flags, starts the requested profilers, runs the
// verb and returns its exit status once the profiles are flushed.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cellfi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr, fs) }
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path on exit")
	traceOut := fs.String("trace", "", "write a runtime execution trace to this path")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return exitUsage
	}
	if fs.NArg() == 0 {
		usage(stderr, fs)
		return exitUsage
	}
	for _, v := range verbs {
		if v.name != fs.Arg(0) {
			continue
		}
		stopProfiles, err := startProfiles(*cpuProfile, *memProfile, *traceOut, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "cellfi: %v\n", err)
			return exitFailure
		}
		defer stopProfiles()
		return v.run(ctx, fs.Args()[1:], stdout, stderr)
	}
	fmt.Fprintf(stderr, "cellfi: unknown verb %q (cellfi -h lists them)\n", fs.Arg(0))
	return exitUsage
}

func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintln(w, "usage: cellfi [-cpuprofile F] [-memprofile F] [-trace F] <verb> [flags] [args]\n\nverbs:")
	for _, v := range verbs {
		fmt.Fprintf(w, "  %-12s %s\n", v.name, v.synopsis)
	}
	fmt.Fprintln(w, "\nroot flags:")
	fs.PrintDefaults()
}

// newFlags returns a verb's flag set: errors are returned, not fatal,
// and usage goes to the verb's stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("cellfi "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses a verb's arguments, which must leave exactly nargs
// positional arguments. ok is false when the verb must return code at
// once: 0 after -h, exitUsage after a bad flag or argument count.
func parse(fs *flag.FlagSet, args []string, nargs int) (code int, ok bool) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return exitUsage, false
	}
	if fs.NArg() != nargs {
		return fail(fs, exitUsage, "want %d argument(s), got %d", nargs, fs.NArg()), false
	}
	return 0, true
}

// fail writes one "cellfi <verb>: message" line to the verb's stderr
// and returns code.
func fail(fs *flag.FlagSet, code int, format string, a ...any) int {
	fmt.Fprintf(fs.Output(), "%s: %s\n", fs.Name(), fmt.Sprintf(format, a...))
	return code
}

// startProfiles begins the requested profilers (an empty path disables
// one) and returns the function that flushes them.
func startProfiles(cpuPath, memPath, tracePath string, stderr io.Writer) (stop func(), err error) {
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
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	if tracePath != "" {
		if traceFile, err = os.Create(tracePath); err != nil {
			cleanup()
			return nil, err
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			traceFile = nil
			cleanup()
			return nil, fmt.Errorf("start trace: %w", err)
		}
	}
	return func() {
		cleanup()
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintf(stderr, "cellfi: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the heap so live objects dominate
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "cellfi: write heap profile: %v\n", err)
		}
	}, nil
}
