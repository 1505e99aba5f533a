package main

import (
	"math"
	"runtime/metrics"
)

// units of every metric the benchmark emits. BENCHMARK.json declares the
// end-to-end and per-layer sets; a test keeps the two in step.
var units = map[string]string{
	// End to end (untraced runs).
	"ops_per_s":          "1/s",
	"read_p50_us":        "us",
	"read_p90_us":        "us",
	"write_p50_us":       "us",
	"write_p90_us":       "us",
	"ok_frac":            "frac",
	"allocs_per_op":      "count",
	"alloc_bytes_per_op": "B",
	"heap_mb":            "MB",
	"setup_s":            "s",

	// Per layer (traced runs).
	"qpring.wq_post_poll_ns":           "ns",
	"qpring.cq_post_poll_ns":           "ns",
	"proto.batch32_cycle_ns":           "ns",
	"proto.marshal64_ns":               "ns",
	"proto.unmarshal64_ns":             "ns",
	"qp.read64_p50_us":                 "us",
	"qp.read4k_p50_us":                 "us",
	"qp.write64_p50_us":                "us",
	"qp.write4k_p50_us":                "us",
	"qp.atomic_p50_us":                 "us",
	"qp.batch8_p50_us":                 "us",
	"qp.self_us_per_op":                "us",
	"qp.calib_read64_p50_us":           "us",
	"qp.async_read64_us":               "us",
	"qp.sync_async_gap":                "ratio",
	"rmc.wq_per_op":                    "count",
	"rmc.lines_per_batch":              "count",
	"rmc.requests_served_per_op":       "count",
	"rmc.completions_per_op":           "count",
	"rmc.errors":                       "count",
	"rmc.tlb_miss_frac":                "frac",
	"fabric.batches_per_op":            "count",
	"fabric.packets_per_batch":         "count",
	"fabric.bytes_per_op":              "B",
	"fabric.req_inject_us_per_op":      "us",
	"fabric.reply_send_us_per_op":      "us",
	"fabric.lanefor_per_op":            "count",
	"kvs.get.hit_frac":                 "frac",
	"kvs.get.hit_p50_us":               "us",
	"kvs.get.miss_p50_us":              "us",
	"kvs.cache.fills_per_kop":          "count",
	"kvs.cache.probes_per_kop":         "count",
	"kvs.cache.invalidations_per_kop":  "count",
	"kvs.put.local_p50_us":             "us",
	"kvs.put.fwd_p50_us":               "us",
	"kvs.put.fwd_frac":                 "frac",
	"kvs.msg.rtt_est_us":               "us",
	"kvs.multiget.p50_us":              "us",
	"kvs.multiget.per_key_us":          "us",
	"kvs.store.msgs_per_put":           "count",
	"kvs.store.replica_writes_per_put": "count",
	"kvs.store.replica_skips":          "count",
	"kvs.store.fenced":                 "count",
	"kvs.store.epoch_bumps":            "count",
	"kvs.store.cfg_stale_polls":        "count",
	"kvs.get_handler_invocations":      "count",
	"go.sched_lat_p50_us":              "us",
	"go.sched_lat_p99_us":              "us",
	"go.cpu_busy_frac":                 "frac",
	"go.gc_cpu_frac":                   "frac",
	"go.gc_cycles_per_kop":             "count",
	"go.mutex_wait_us_per_op":          "us",
	"go.goroutines":                    "count",
	"tail.read_p99_us":                 "us",
	"tail.write_p99_us":                "us",
	"tail.read_p999_us":                "us",
	"trace.overhead.ops_per_s":         "frac",
	"trace.overhead.read_p50_us":       "frac",
	"trace.overhead.write_p50_us":      "frac",
	"run.read_samples":                 "count",
	"run.write_samples":                "count",
	"proc.ops_per_s":                   "1/s",
	"proc.get_p50_us":                  "us",
	"proc.put_p50_us":                  "us",
	"proc.fabric.bytes_per_op":         "B",
	"proc.fabric.batches_per_op":       "count",
	"proc.setup_s":                     "s",
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	u, ok := units[name]
	if !ok {
		panic("metric without a unit: " + name)
	}
	m[name] = metric{Value: v, Unit: u}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd is what a user of the stack sees, from the untraced phases of
// one run and their windows.
func endToEnd(phases []*phase, wins []window, res *result, setupS float64) map[string]metric {
	m := metricSet{}
	var rate, r50, r90, w50, w90, heap []float64
	for _, w := range wins {
		rate = append(rate, w.rate)
		r50, r90 = append(r50, w.r50), append(r90, w.r90)
		w50, w90 = append(w50, w.w50), append(w90, w.w90)
	}
	var calls, mallocs, allocB float64
	for _, p := range phases {
		calls += float64(p.calls())
		mallocs += float64(p.mallocs)
		allocB += float64(p.allocB)
		heap = append(heap, p.heapMB)
	}
	m.set("ops_per_s", median(rate))
	m.set("read_p50_us", median(r50))
	m.set("read_p90_us", median(r90))
	m.set("write_p50_us", median(w50))
	m.set("write_p90_us", median(w90))
	m.set("ok_frac", math.Max(0, 1-ratio(float64(res.Failed), float64(res.Attempted))))
	m.set("allocs_per_op", ratio(mallocs, calls))
	m.set("alloc_bytes_per_op", ratio(allocB, calls))
	m.set("heap_mb", median(heap))
	m.set("setup_s", setupS)
	return m
}

// perLayer derives the per-layer metrics: counter and runtime deltas and
// the per-op-type latency split from the untraced phase, span-based and
// per-call classified figures from the traced phase, and the calibration
// probes.
func perLayer(plain, traced *phase, cal calibration, oneOpInFlight bool) map[string]metric {
	m := metricSet{}
	calls := float64(plain.calls())
	p50 := func(p *phase, cs ...class) float64 { return pct(samples(p.recs, isClass(cs...)), 50) }

	m.set("qpring.wq_post_poll_ns", cal.wqPostPollNs)
	m.set("qpring.cq_post_poll_ns", cal.cqPostPollNs)
	m.set("proto.batch32_cycle_ns", cal.batch32Ns)
	m.set("proto.marshal64_ns", cal.marshal64Ns)
	m.set("proto.unmarshal64_ns", cal.unmarshal64Ns)

	read64 := p50(plain, cRead64)
	m.set("qp.read64_p50_us", read64)
	m.set("qp.read4k_p50_us", p50(plain, cRead4K))
	m.set("qp.write64_p50_us", p50(plain, cWrite64))
	m.set("qp.write4k_p50_us", p50(plain, cWrite4K))
	m.set("qp.atomic_p50_us", p50(plain, cAtomic))
	m.set("qp.batch8_p50_us", p50(plain, cBatch8))
	m.set("qp.calib_read64_p50_us", cal.syncRead64P50Us)
	m.set("qp.async_read64_us", cal.asyncRead64Us)
	// The gap divides the workload's own sync 64 B read p50 where it
	// issues such reads (rmc-mix), and the calibration's elsewhere.
	if read64 == 0 {
		read64 = cal.syncRead64P50Us
	}
	m.set("qp.sync_async_gap", ratio(read64, cal.asyncRead64Us))

	// With one client, one op in flight and no background traffic
	// (rmc-mix) every fabric span lies inside the op that caused it, so
	// the subtraction is exact.
	self := 0.0
	if oneOpInFlight && traced.fab != nil {
		self = selfTime(traced.recs[0].spans, traced.fabSpans, traced.fabOffset) * 1e6
	}
	m.set("qp.self_us_per_op", ratio(self, float64(traced.calls())))

	d := diff(plain.c0, plain.c1)
	m.set("rmc.wq_per_op", ratio(float64(d.rmc.WQConsumed), calls))
	m.set("rmc.lines_per_batch", ratio(float64(d.rmc.LinesSent), float64(d.rmc.BatchesSent)))
	m.set("rmc.requests_served_per_op", ratio(float64(d.rmc.RequestsRecv), calls))
	m.set("rmc.completions_per_op", ratio(float64(d.rmc.Completions), calls))
	m.set("rmc.errors", float64(d.rmc.Errors))
	m.set("rmc.tlb_miss_frac", ratio(float64(d.rmc.TLBMisses), float64(d.rmc.RequestsRecv)))

	m.set("fabric.batches_per_op", ratio(float64(d.fabBatches), calls))
	m.set("fabric.packets_per_batch", ratio(float64(d.fabReq+d.fabRpl), float64(d.fabBatches)))
	m.set("fabric.bytes_per_op", ratio(float64(d.fabBytes), calls))
	tcalls := float64(traced.calls())
	req, rpl := fabricTimes(traced.fabSpans)
	m.set("fabric.req_inject_us_per_op", ratio(req*1e6, tcalls))
	m.set("fabric.reply_send_us_per_op", ratio(rpl*1e6, tcalls))
	lanes := 0.0
	if traced.fab != nil {
		lanes = float64(traced.fab.laneFor.Load())
	}
	m.set("fabric.lanefor_per_op", ratio(lanes, tcalls))

	hits := samples(traced.recs, isClass(cGetHit))
	misses := samples(traced.recs, isClass(cGetMiss))
	m.set("kvs.get.hit_frac", ratio(float64(len(hits)), float64(len(hits)+len(misses))))
	m.set("kvs.get.hit_p50_us", pct(hits, 50))
	m.set("kvs.get.miss_p50_us", pct(misses, 50))
	m.set("kvs.cache.fills_per_kop", ratio(float64(d.cache.Fills)*1e3, calls))
	m.set("kvs.cache.probes_per_kop", ratio(float64(d.cache.Probes)*1e3, calls))
	m.set("kvs.cache.invalidations_per_kop", ratio(float64(d.cache.Invalidations)*1e3, calls))

	local, fwd := samples(plain.recs, isClass(cPutLocal)), samples(plain.recs, isClass(cPutFwd))
	m.set("kvs.put.local_p50_us", pct(local, 50))
	m.set("kvs.put.fwd_p50_us", pct(fwd, 50))
	m.set("kvs.put.fwd_frac", ratio(float64(len(fwd)), float64(len(local)+len(fwd))))
	rtt := 0.0
	if len(local) > 0 && len(fwd) > 0 {
		rtt = pct(fwd, 50) - pct(local, 50)
	}
	m.set("kvs.msg.rtt_est_us", rtt)
	mg := p50(plain, cMultiGet)
	m.set("kvs.multiget.p50_us", mg)
	m.set("kvs.multiget.per_key_us", mg/multiGetN)

	puts := float64(len(local) + len(fwd))
	m.set("kvs.store.msgs_per_put", ratio(float64(d.store.MsgsHandled), puts))
	m.set("kvs.store.replica_writes_per_put", ratio(float64(d.store.ReplicaWrites), puts))
	m.set("kvs.store.replica_skips", float64(d.store.ReplicaSkips))
	m.set("kvs.store.fenced", float64(d.store.Fenced))
	m.set("kvs.store.epoch_bumps", float64(d.store.EpochBumps))
	m.set("kvs.store.cfg_stale_polls", float64(d.store.CfgStalePolls))
	// A GET never reaches a serve loop; a forwarded PUT costs two handler
	// invocations (the PUT at its primary, the ack at its origin).
	m.set("kvs.get_handler_invocations", float64(d.store.MsgsHandled)-2*float64(d.store.PutsForwarded))

	r0, r1 := plain.r0, plain.r1
	m.set("go.sched_lat_p50_us", histPct(r0.sched, r1.sched, 0.50)*1e6)
	m.set("go.sched_lat_p99_us", histPct(r0.sched, r1.sched, 0.99)*1e6)
	cpu := r1.cpuTotal - r0.cpuTotal
	m.set("go.cpu_busy_frac", ratio(cpu-(r1.cpuIdle-r0.cpuIdle), cpu))
	m.set("go.gc_cpu_frac", ratio(r1.cpuGC-r0.cpuGC, cpu))
	m.set("go.gc_cycles_per_kop", ratio(float64(r1.gcCycles-r0.gcCycles)*1e3, calls))
	m.set("go.mutex_wait_us_per_op", ratio((r1.mutexWait-r0.mutexWait)*1e6, calls))
	m.set("go.goroutines", float64(r1.goroutines))

	reads, writes := samples(plain.recs, isRead), samples(plain.recs, isWrite)
	m.set("tail.read_p99_us", pct(reads, 99))
	m.set("tail.write_p99_us", pct(writes, 99))
	m.set("tail.read_p999_us", pct(reads, 99.9))

	treads, twrites := samples(traced.recs, isRead), samples(traced.recs, isWrite)
	m.set("trace.overhead.ops_per_s", ratio(tcalls/traced.elapsed, calls/plain.elapsed)-1)
	m.set("trace.overhead.read_p50_us", ratio(pct(treads, 50), pct(reads, 50))-1)
	m.set("trace.overhead.write_p50_us", ratio(pct(twrites, 50), pct(writes, 50))-1)
	m.set("run.read_samples", float64(len(reads)))
	m.set("run.write_samples", float64(len(writes)))
	return m
}

// daemonMetrics derives the proc.* metrics from a workload's daemon
// phase: stores in sonuma-node daemons and the clients on a client-only
// node of the bench process, so that every call crosses the socket
// fabric and its frame codec. The fabric counters are the client node's.
// Without a daemon phase they read 0.
func daemonMetrics(m metricSet, p *phase, setupS float64) {
	var calls, rate, get, put, bytes, batches float64
	if p != nil {
		calls = float64(p.calls())
		rate = ratio(calls, p.elapsed)
		get = pct(samples(p.recs, isClass(cGet)), 50)
		put = pct(samples(p.recs, isClass(cPutLocal, cPutFwd)), 50)
		d := diff(p.c0, p.c1)
		bytes, batches = float64(d.fabBytes), float64(d.fabBatches)
	}
	m.set("proc.ops_per_s", rate)
	m.set("proc.get_p50_us", get)
	m.set("proc.put_p50_us", put)
	m.set("proc.fabric.bytes_per_op", ratio(bytes, calls))
	m.set("proc.fabric.batches_per_op", ratio(batches, calls))
	m.set("proc.setup_s", setupS)
}

// histPct is the q-quantile of the samples a histogram gained between two
// readings, at the upper edge of the bucket it falls in.
func histPct(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= want {
			if math.IsInf(b.Buckets[i+1], 1) {
				return b.Buckets[i]
			}
			return b.Buckets[i+1]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}
