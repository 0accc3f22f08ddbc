package main

import (
	"net/http"
	"time"

	"cellfi/internal/faults"
	"cellfi/internal/paws"
	"cellfi/internal/pawsdb"
	"cellfi/internal/spectrum"
)

const pawsRuleset = "ETSI-EN-301-598-2014"

// kernelsPaws times the database path one layer at a time on a private
// server on the same incumbent world, over the first clients of the fleet.
func kernelsPaws(e *env, f *fleet) map[string]float64 {
	m := map[string]float64{}
	n := min(len(f.pts), 1024)
	reg := pawsRegistry()
	db := pawsdb.New(reg, pawsdb.Options{})
	srv := paws.NewServerWith(db)
	bodies := make([][]byte, n)
	serials := make([]string, n)
	for i := range bodies {
		bodies[i] = getSpectrumBody(i, f.pts[i])
		serials[i] = serial(i)
	}
	now := time.Now()
	w := newLeanWorker()

	// The whole server path, warm: decode, query, lease renewal, encode.
	var bytesOut int
	for i := range bodies {
		w.serve(srv, bodies[i])
		bytesOut += len(w.snk.buf)
	}
	m["paws.bytes_per_resp"] = float64(bytesOut) / float64(n)
	m["paws.server_lean_ns"] = e.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			w.serve(srv, bodies[i%n])
		}
	})

	// The same client call without sockets: both JSON codecs, no TCP.
	cl := paws.NewClient("http://pawsdb.bench/paws", serials[0])
	cl.HTTPClient = &http.Client{Transport: faults.HandlerTransport{Handler: srv}}
	m["paws.client_call_us_inproc"] = e.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			if _, err := cl.GetSpectrum(f.pts[i%n], pawsAntennaM); err != nil {
				sinkI++
			}
		}
	}) / 1e3

	// Index + response cache, and the index alone.
	m["pawsdb.query_ns_cached"] = e.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			sinkI += len(db.Query(f.pts[i%n], "FIXED", pawsRuleset, now).Avail)
		}
	})
	bare := pawsdb.New(reg, pawsdb.Options{DisableCache: true})
	m["pawsdb.query_ns_uncached"] = e.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			sinkI += len(bare.Query(f.pts[i%n], "FIXED", pawsRuleset, now).Avail)
		}
	})

	// Lease store: renewal of a live lease, and a first grant (a fresh
	// store per pass over the serials keeps every Acquire a grant).
	until := now.Add(time.Hour)
	cell := db.Query(f.pts[0], "FIXED", pawsRuleset, now).Cell
	m["pawsdb.lease_acquire_ns"] = e.nsPerOp(func(k int) {
		ls := db.Leases()
		for i := 0; i < k; i++ {
			ls.Acquire(serials[i%n], "FIXED", cell, until, now)
		}
	})
	m["pawsdb.lease_grant_ns"] = e.nsPerOp(func(k int) {
		for done := 0; done < k; done += n {
			ls := pawsdb.New(reg, pawsdb.Options{}).Leases()
			for i := 0; i < n && done+i < k; i++ {
				ls.Acquire(serials[i], "FIXED", cell, until, now)
			}
		}
	})
	m["paws.server_codec_ns"] = m["paws.server_lean_ns"] - m["pawsdb.query_ns_cached"] - m["pawsdb.lease_acquire_ns"]

	// One NOTIFY_SPECTRUM_USE through the server: decode, availability
	// check of the reported channel, use-log write.
	var notify [][]byte
	for i := 0; i < n; i++ {
		if av := f.ref.AvailableAt(paws.FromGeo(paws.ToGeo(f.pts[i])), f.at); len(av) > 0 {
			notify = append(notify, notifyBody(i, f.pts[i], av[0]))
		}
	}
	if len(notify) > 0 {
		m["pawsdb.notify_ns"] = e.nsPerOp(func(k int) {
			for i := 0; i < k; i++ {
				w.serve(srv, notify[i%len(notify)])
			}
		})
	}

	// Snapshot rebuild: the first query after an incumbent change.
	first, _ := reg.Domain.ChannelRange()
	rebuilds := make([]float64, 5)
	for i := range rebuilds {
		srv.Lock()
		_ = reg.AddIncumbent(spectrum.Incumbent{Kind: spectrum.WirelessMic, Channel: first,
			Location: f.pts[i], ProtectRadius: 500}) // channel is the domain's own first
		srv.Unlock()
		t0 := time.Now()
		db.Query(f.pts[i], "FIXED", pawsRuleset, now)
		rebuilds[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	m["pawsdb.rebuild_ms"] = median(rebuilds)

	// The brute reference scan the index replaces.
	m["spectrum.available_at_us"] = e.nsPerOp(func(k int) {
		for i := 0; i < k; i++ {
			sinkI += len(f.ref.AvailableAt(f.pts[i%n], f.at))
		}
	}) / 1e3
	return m
}

// dbCounters reads the workload's own database counters.
func dbCounters(srv *paws.Server) map[string]float64 {
	snap := srv.DB().Snapshot(time.Now())
	return map[string]float64{
		"pawsdb.cache_hit_ratio": snap.CacheHitRate,
		"pawsdb.rebuilds":        float64(snap.Rebuilds),
	}
}

func (in *wireInst) layers(r *runResult) map[string]float64 {
	m := mergeInto(kernelsPaws(in.e, in.f), dbCounters(in.srv))
	var failovers uint64
	for _, c := range in.clients {
		failovers += c.Failovers()
	}
	m["paws.failovers"] = float64(failovers)
	m["paws.retries"] = float64(in.cnt.retries.Load())
	m["paws.allocs_per_req_wire"] = float64(r.allocN) / float64(r.ops())
	m["paws.wire_lat_us_p99"] = 1e3 * r.quiet.p99
	p50us := 1e3 * r.quiet.p50
	m["paws.wire_overhead_us"] = p50us - m["paws.client_call_us_inproc"]
	return m
}

func (in *leanInst) layers(r *runResult) map[string]float64 {
	m := mergeInto(kernelsPaws(in.e, in.f), dbCounters(in.srv))
	m["paws.allocs_per_req_lean"] = float64(r.allocN) / float64(r.ops())
	m["paws.lean_lat_us_p99"] = 1e3 * r.quiet.p99
	if len(in.rebuilds) > 0 {
		// Observed under load: first query after each churn mutation.
		m["pawsdb.rebuild_ms"] = median(in.rebuilds)
	}
	return m
}
