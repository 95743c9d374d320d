package main

// layers.go turns the traced pass into per-layer metrics. Each value is
// measured at a public seam (see trace.go) and joined to the client's own
// records by session and order.

// perLayer fills the per-layer metrics of a traced run. a is the untraced
// pass over the same queries, tb the traced one; replayed is the WAL
// record count the traced recovery read.
func (b *bench) perLayer(res *result, sys *system, t *tracer, a, tb pass, replayed int64) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	absent := func(why string, names ...string) {
		for _, n := range names {
			b.notes = append(b.notes, n+" absent on "+b.w.name+": "+why+" (reported as 0)")
		}
	}
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}

	// Join client records to the replica (and router) spans of each session.
	var hitMs, bottomMs, topMs, overheadMs, pageinMs, hopMs []float64
	var missSpanNs int64
	misses := 0
	for s, rs := range tb.timed {
		id := b.drv.ids[s]
		rep := spansOf(t.replica, id)
		rt := spansOf(t.router, id)
		if len(rep) != len(rs) || (b.w.fleet && len(rt) != len(rs)) {
			b.notes = append(b.notes, "spans of session "+id+" do not pair with its queries; it is left out of the span metrics")
			continue
		}
		for k, r := range rs {
			if !r.ok() {
				continue
			}
			d := ms(rep[k].dur)
			switch {
			case r.cached:
				hitMs = append(hitMs, d)
			case r.top:
				topMs = append(topMs, d)
			default:
				bottomMs = append(bottomMs, d)
			}
			if !r.cached {
				misses++
				missSpanNs += int64(rep[k].dur)
			}
			if rep[k].pagein {
				pageinMs = append(pageinMs, d)
			}
			outer := rep[k].dur
			if b.w.fleet {
				outer = rt[k].dur
				hopMs = append(hopMs, ms(rt[k].dur-rep[k].dur))
			}
			overheadMs = append(overheadMs, ms(r.lat-outer))
		}
	}

	// route
	if b.w.fleet {
		hopTail, label := tail(hopMs)
		b.notes = append(b.notes, "route.hop_ms_tail is the "+label)
		set("route.hop_ms_p50", "ms", median(hopMs))
		set("route.hop_ms_tail", "ms", hopTail)
		set("route.errors", "count", float64(t.routeErrors.Load()))
	} else {
		set("route.hop_ms_p50", "ms", 0)
		set("route.hop_ms_tail", "ms", 0)
		set("route.errors", "count", 0)
		absent("no router in this workload", "route.hop_ms_p50", "route.hop_ms_tail", "route.errors")
	}

	// service
	set("service.hit_ms_p50", "ms", median(hitMs))
	set("service.bottom_ms_p50", "ms", median(bottomMs))
	set("service.top_ms_p50", "ms", median(topMs))
	if len(hitMs) == 0 {
		absent("no query repeats, so no cache hits", "service.hit_ms_p50")
	}
	if len(bottomMs) == 0 {
		absent("no ⊥ answers", "service.bottom_ms_p50")
	}
	if len(topMs) == 0 {
		absent("no ⊤ answers", "service.top_ms_p50")
	}
	set("service.http_overhead_ms_p50", "ms", median(overheadMs))
	if b.w.fleet {
		b.notes = append(b.notes, "service.http_overhead_ms_p50 is the client round trip minus the router's handler span")
	} else {
		b.notes = append(b.notes, "service.http_overhead_ms_p50 is the client round trip minus the replica's service.NewHandler span (obs middleware, JSON, loopback transport)")
	}
	set("service.cache_hit_ratio", "ratio", per(float64(tb.hits), tb.answered))
	set("service.evictions", "count", tb.evictions)
	set("service.pageins", "count", tb.pageins)
	set("service.pagein_query_ms_p50", "ms", median(pageinMs))
	if !b.w.fleet {
		absent("no residency cap in this workload", "service.pagein_query_ms_p50")
	}

	// xeval / core / erm: sweep counts are exact; with two clients a sweep
	// cannot be attributed to the call that made it, so the xeval numbers
	// include the oracle's own sweeps.
	sweeps, sweepNs := t.sweeps.Load(), t.sweepNs.Load()
	oracleNs, calls := t.oracleNs.Load(), t.oracleCalls.Load()
	set("xeval.sweeps_per_miss", "count", per(float64(sweeps), misses))
	set("xeval.sweep_ms_per_miss", "ms", per(float64(sweepNs)/1e6, misses))
	set("xeval.sweep_us_mean", "us", per(float64(sweepNs)/1e3, int(sweeps)))
	persistNs := t.saveTotalNs.Load() + t.walFsyncNs.Load()
	set("core.self_ms_per_miss", "ms", per(float64(missSpanNs-sweepNs-oracleNs-persistNs)/1e6, misses))
	b.notes = append(b.notes, "xeval.* include the oracle's own sweeps, so core.self_ms_per_miss (miss spans minus sweeps, oracle and persist time) subtracts those twice and is low by at most the oracle's sweep time")
	set("erm.calls", "count", float64(calls))
	set("erm.oracle_ms_per_top", "ms", per(float64(oracleNs)/1e6, int(calls)))
	if misses == 0 {
		absent("no mechanism answers", "xeval.sweeps_per_miss", "xeval.sweep_ms_per_miss", "core.self_ms_per_miss")
	}
	if calls == 0 {
		absent("no ⊤ answers, so no oracle calls", "erm.oracle_ms_per_top")
	}

	// persist
	t.mu.Lock()
	fsyncMs, saveMs := msList(t.fsyncNs), msList(t.saveNs)
	t.mu.Unlock()
	set("persist.fsyncs_per_top", "count", per(float64(len(fsyncMs)), tb.tops))
	set("persist.fsync_ms_p50", "ms", median(fsyncMs))
	set("persist.bytes_per_top", "B", per(float64(t.bytesWritten.Load()), tb.tops))
	set("persist.commit_batch_mean", "count", per(tb.commitBatches.sum, int(tb.commitBatches.count)))
	set("persist.save_ms_p50", "ms", median(saveMs))
	set("persist.recover_s", "s", sys.recoverS)
	set("persist.replayed_records", "count", float64(replayed))
	if b.w.fleet {
		absent("the remote backend has no WAL", "persist.commit_batch_mean", "persist.replayed_records")
		b.notes = append(b.notes, "persist fsyncs and bytes are the blob store's: PUT bodies written by `pmwcm store`")
	}

	// process
	set("process.allocs_per_query", "count", per(float64(tb.mallocs), tb.answered))
	set("process.gc_cycles", "count", float64(tb.gcs))
	traced, untraced := tb.cpuPerQuery(), a.cpuPerQuery()
	set("trace.overhead_cpu_ms_per_query", "ms", traced-untraced)
	b.printf("cpu_ms_per_query traced %.4f, untraced %.4f\n", traced, untraced)
}
