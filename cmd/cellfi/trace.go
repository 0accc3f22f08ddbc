package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"cellfi/internal/invariant"
	"cellfi/internal/stats"
	"cellfi/internal/trace"
)

// runTrace decodes, filters, renders and diffs the binary
// flight-recorder streams the simulators capture (internal/trace) — the
// repo's answer to browsing QXDM logs. Its usage lists the subcommands.
//
// dump prints one record per line in the stable textual form. info
// summarizes a stream (record counts per kind, APs, time span).
// timeline renders each AP's interference-management history as an
// ASCII heatmap — subchannel rows × epoch columns, built from im-share
// bitmasks, with hop-in (+) and hop-out (x) marks. diff compares two
// streams record by record and exits 1 at the first divergence — the
// determinism check behind "same seed, same trace". verify replays a
// recorded stream through the regulatory invariant checker
// (internal/invariant) and exits 1 with the first violating record on
// any breach — the offline audit of what sim's -invariants watchdog
// enforces online.
func runTrace(_ context.Context, args []string, stdout, stderr io.Writer) int {
	code := exitUsage
	if len(args) > 0 {
		switch args[0] {
		case "dump":
			return traceDump(args[1:], stdout, stderr)
		case "info":
			return traceInfo(args[1:], stdout, stderr)
		case "timeline":
			return traceTimeline(args[1:], stdout, stderr)
		case "diff":
			return traceDiff(args[1:], stdout, stderr)
		case "verify":
			return traceVerify(args[1:], stdout, stderr)
		case "-h", "-help", "--help":
			code = 0
		default:
			fmt.Fprintf(stderr, "cellfi trace: unknown command %q\n", args[0])
		}
	}
	fmt.Fprintln(stderr, `usage:
  cellfi trace dump [-ap N] [-kind name] [-from ns] [-to ns] file.trace
  cellfi trace info file.trace
  cellfi trace timeline [-ap N] file.trace
  cellfi trace diff a.trace b.trace
  cellfi trace verify [-deadline d] [-slack d] [-all] file.trace`)
	return code
}

// filter is the record predicate dump builds from its flags.
type filter struct {
	ap       int64
	apSet    bool
	kind     trace.Kind
	kindSet  bool
	from, to int64
	toSet    bool
}

func (f *filter) match(r trace.Record) bool {
	if f.apSet && int64(r.AP) != f.ap {
		return false
	}
	if f.kindSet && r.Kind != f.kind {
		return false
	}
	if r.T < f.from {
		return false
	}
	if f.toSet && r.T > f.to {
		return false
	}
	return true
}

func traceDump(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace dump", stderr)
	ap := fs.Int64("ap", 0, "only records for this AP id (-1 = engine-level records)")
	kind := fs.String("kind", "", "only records of this kind (e.g. im-hop, lease)")
	from := fs.Int64("from", 0, "only records at or after this timestamp (ns)")
	to := fs.Int64("to", 0, "only records at or before this timestamp (ns)")
	if code, ok := parse(fs, args, 1); !ok {
		return code
	}
	var f filter
	fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "ap":
			f.ap, f.apSet = *ap, true
		case "from":
			f.from = *from
		case "to":
			f.to, f.toSet = *to, true
		}
	})
	if *kind != "" {
		k, ok := trace.ParseKind(*kind)
		if !ok {
			return fail(fs, exitUsage, "unknown kind %q (see cellfi trace info for names)", *kind)
		}
		f.kind, f.kindSet = k, true
	}
	recs, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}
	shown := 0
	for _, r := range recs {
		if !f.match(r) {
			continue
		}
		fmt.Fprintln(stdout, r)
		shown++
	}
	fmt.Fprintf(stderr, "%d/%d records\n", shown, len(recs))
	return 0
}

func traceInfo(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace info", stderr)
	if code, ok := parse(fs, args, 1); !ok {
		return code
	}
	path := fs.Arg(0)
	recs, err := trace.ReadFile(path)
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}
	fmt.Fprintf(stdout, "%s: %d records, %d bytes (%.1f bytes/record)\n",
		path, len(recs), fi.Size(), perRecord(fi.Size(), len(recs)))
	if len(recs) == 0 {
		return 0
	}
	minT, maxT := recs[0].T, recs[0].T
	byKind := map[trace.Kind]int{}
	aps := map[int32]bool{}
	for _, r := range recs {
		minT = min(minT, r.T)
		maxT = max(maxT, r.T)
		byKind[r.Kind]++
		aps[r.AP] = true
	}
	fmt.Fprintf(stdout, "time span: %d .. %d ns (%.3f s)\n", minT, maxT, float64(maxT-minT)/1e9)
	fmt.Fprintf(stdout, "APs: %d distinct\n", len(aps))
	kinds := make([]trace.Kind, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(stdout, "  %-14s %d\n", k.String(), byKind[k])
	}
	return 0
}

func perRecord(size int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(size) / float64(n)
}

// traceTimeline renders interference-management occupancy: for each
// AP a heatmap of subchannel rows × epoch columns where a dark cell
// means the subchannel was held that epoch (from the im-share bitmask),
// '+' marks a hop onto the subchannel and 'x' a hop off it.
func traceTimeline(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace timeline", stderr)
	ap := fs.Int64("ap", -1, "render only this AP (-1 = all APs with IM records)")
	if code, ok := parse(fs, args, 1); !ok {
		return code
	}
	recs, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}
	type apHistory struct {
		shares []trace.Record
		hops   []trace.Record
	}
	hist := map[int32]*apHistory{}
	maxSub := 0
	for _, r := range recs {
		if *ap >= 0 && int64(r.AP) != *ap {
			continue
		}
		if r.Kind != trace.KindIMShare && r.Kind != trace.KindIMHop {
			continue
		}
		h := hist[r.AP]
		if h == nil {
			h = &apHistory{}
			hist[r.AP] = h
		}
		switch r.Kind {
		case trace.KindIMShare:
			h.shares = append(h.shares, r)
			for k := 0; k < 63; k++ {
				if r.Args[1]&(1<<k) != 0 && k > maxSub {
					maxSub = k
				}
			}
		case trace.KindIMHop:
			h.hops = append(h.hops, r)
			for _, a := range []int64{r.Args[0], r.Args[1]} {
				if int(a) > maxSub {
					maxSub = int(a)
				}
			}
		}
	}
	if len(hist) == 0 {
		return fail(fs, exitFailure, "no interference-management records%s", apSuffix(*ap))
	}
	ids := make([]int32, 0, len(hist))
	for id := range hist {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		h := hist[id]
		if len(h.shares) == 0 {
			continue
		}
		// One column per im-share epoch; map timestamps to columns so
		// hop marks (stamped with the same epoch clock) land in place.
		col := map[int64]int{}
		for i, r := range h.shares {
			col[r.T] = i
		}
		grid := make([][]float64, maxSub+1)
		for k := range grid {
			grid[k] = make([]float64, len(h.shares))
		}
		for i, r := range h.shares {
			for k := 0; k <= maxSub && k < 63; k++ {
				if r.Args[1]&(1<<k) != 0 {
					grid[k][i] = 1
				}
			}
		}
		marks := map[[2]int]byte{}
		for _, r := range h.hops {
			c, ok := col[r.T]
			if !ok {
				continue // hop outside any recorded epoch (e.g. truncated stream)
			}
			if from := r.Args[0]; from >= 0 && int(from) <= maxSub {
				marks[[2]int{int(from), c}] = 'x'
			}
			if to := r.Args[1]; to >= 0 && int(to) <= maxSub {
				marks[[2]int{int(to), c}] = '+'
			}
		}
		fmt.Fprintf(stdout, "AP %d: %d epochs, %d hops (rows = subchannel 0..%d, cols = epochs; + hop in, x hop out)\n",
			id, len(h.shares), len(h.hops), maxSub)
		fmt.Fprint(stdout, stats.Heatmap(grid, marks))
		fmt.Fprintln(stdout)
	}
	return 0
}

func apSuffix(ap int64) string {
	if ap < 0 {
		return ""
	}
	return fmt.Sprintf(" for AP %d", ap)
}

// traceVerify replays a recorded stream through the regulatory
// invariant checker. It fails on the first violation (printed with its
// stream index) and on a stream that cannot be decoded — a torn
// evidence file is an audit failure, not a pass.
func traceVerify(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace verify", stderr)
	deadline := fs.Duration("deadline", 0, "evacuation deadline (default: the ETSI minute)")
	slack := fs.Duration("slack", 0, "cross-clock slack for the incumbent rule (max per-AP skew)")
	all := fs.Bool("all", false, "print every retained violation, not just the first")
	if code, ok := parse(fs, args, 1); !ok {
		return code
	}
	recs, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}
	c := &invariant.Checker{Deadline: *deadline, Slack: *slack}
	c.Feed(recs)
	v := c.First()
	if v == nil {
		fmt.Fprintf(stdout, "OK %d records, 0 violations\n", c.Records())
		return 0
	}
	if *all {
		for _, vi := range c.Violations() {
			fmt.Fprintf(stdout, "VIOLATION %s\n", vi)
		}
		if c.Total() > len(c.Violations()) {
			fmt.Fprintf(stdout, "... %d further violations not retained\n", c.Total()-len(c.Violations()))
		}
	} else {
		fmt.Fprintf(stdout, "VIOLATION %s\n", v)
	}
	return fail(fs, exitFailure, "%d record(s) violate the regulatory catalog (first at index %d)",
		c.Total(), v.Index)
}

// traceDiff compares two streams and fails at the first divergence,
// printing its position, timestamps, APs and kinds.
func traceDiff(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace diff", stderr)
	if code, ok := parse(fs, args, 2); !ok {
		return code
	}
	a, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}
	b, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}
	d := trace.Diff(a, b)
	fmt.Fprintln(stdout, d.String())
	if !d.Identical {
		return exitFailure
	}
	return 0
}
