package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"cellfi/internal/faults"
	"cellfi/internal/pawsload"
)

// runLoad is the open-loop load generator for the PAWS spectrum
// database. It synthesizes a seeded metro of incumbents and simulated
// access points, drives AVAIL_SPECTRUM_REQ traffic through an
// in-process paws.Server (lean mode) or full PAWS clients behind a
// fault injector (-wire), and prints the measured throughput, latency
// quantiles and database counters.
//
//	cellfi load -clients 100000 -requests 500000
//	cellfi load -clients 100000 -requests 500000 -qps 60000 -outages 2s-4s
//	cellfi load -wire -clients 2000 -requests 20000 -profile heavy
func runLoad(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlags("load", stderr)
	clients := fs.Int("clients", 100000, "distinct simulated access points")
	requests := fs.Int("requests", 500000, "total spectrum queries to send")
	qps := fs.Float64("qps", 0, "open-loop target rate (0 = maximum speed)")
	workers := fs.Int("workers", 0, "load-generating goroutines (0 = 4x GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "seed for registry, placement and fault schedules")
	incumbents := fs.Int("incumbents", 160, "incumbents in the synthetic metro registry")
	regionKM := fs.Float64("region-km", 30, "metro half-width in kilometres")
	noCache := fs.Bool("no-cache", false, "disable the response cache (measure the raw index path)")
	wire := fs.Bool("wire", false, "wire mode: full PAWS clients through the fault injector")
	profile := fs.String("profile", "", "fault profile for -wire (mild, heavy, outage)")
	outages := fs.String("outages", "", "server outage windows, e.g. \"2s-4s,10s-11s\"")
	jsonOut := fs.Bool("json", false, "emit the full result as JSON")
	if code, ok := parse(fs, args, 0); !ok {
		return code
	}
	if *clients < 1 || *requests < 1 || *incumbents < 1 {
		return fail(fs, exitUsage, "-clients, -requests and -incumbents must be at least 1")
	}
	if *regionKM < 0 || *qps < 0 {
		return fail(fs, exitUsage, "-region-km and -qps must not be negative")
	}
	windows, err := faults.ParseWindows(*outages)
	if err != nil {
		return fail(fs, exitUsage, "%v", err)
	}
	res, err := pawsload.Run(pawsload.Config{
		Clients:      *clients,
		Requests:     *requests,
		TargetQPS:    *qps,
		Workers:      *workers,
		Seed:         *seed,
		Incumbents:   *incumbents,
		RegionM:      *regionKM * 1000,
		DisableCache: *noCache,
		Wire:         *wire,
		FaultProfile: *profile,
		Outages:      windows,
	})
	if err != nil {
		return fail(fs, exitFailure, "%v", err)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fail(fs, exitFailure, "%v", err)
		}
		return 0
	}
	fmt.Fprintf(stdout, "requests    %d over %d clients in %.2fs\n", res.Requests, res.Clients, res.Duration)
	fmt.Fprintf(stdout, "throughput  %.0f qps sustained (errors %d, late starts %d)\n", res.QPS, res.Errors, res.LateStarts)
	fmt.Fprintf(stdout, "latency     p50 %.1fus  p99 %.1fus  mean %.1fus\n",
		float64(res.LatencyP50Ns)/1e3, float64(res.LatencyP99Ns)/1e3, res.LatencyMeanNs/1e3)
	fmt.Fprintf(stdout, "cache       hit rate %.1f%% (%d hits, %d boundary hits, %d misses, %d entries)\n",
		100*res.DB.CacheHitRate, res.DB.CacheHits, res.DB.CacheNegHits, res.DB.CacheMisses, res.DB.CacheEntries)
	fmt.Fprintf(stdout, "leases      %d granted, %d renewed, %d expired, %d active\n",
		res.DB.LeasesGranted, res.DB.LeasesRenewed, res.DB.LeasesExpired, res.DB.ActiveLeases)
	fmt.Fprintf(stdout, "db          %d incumbents, %d rebuilds, dispatch p99 %.1fus\n",
		res.DB.Incumbents, res.DB.Rebuilds, float64(res.DB.LatencyP99Ns)/1e3)
	return 0
}
