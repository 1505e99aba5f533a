package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"time"
	"unsafe"

	"sonuma"
	"sonuma/internal/fabric"
	"sonuma/internal/kvs"
)

// counters is one snapshot of every public counter the layers expose,
// summed over the nodes, stores and clients of a system.
type counters struct {
	rmc        sonuma.RMCStats
	fabReq     uint64 // request packets
	fabRpl     uint64 // reply packets
	fabBatches uint64
	fabBytes   uint64
	store      kvs.StoreStats
	cache      kvs.CacheStats
}

func (c *counters) addRMC(s sonuma.RMCStats) {
	c.rmc.WQConsumed += s.WQConsumed
	c.rmc.LinesSent += s.LinesSent
	c.rmc.BatchesSent += s.BatchesSent
	c.rmc.RepliesRecv += s.RepliesRecv
	c.rmc.RequestsRecv += s.RequestsRecv
	c.rmc.Completions += s.Completions
	c.rmc.Errors += s.Errors
	c.rmc.TLBMisses += s.TLBMisses
}

func (c *counters) addStore(s kvs.StoreStats) {
	c.store.MsgsHandled += s.MsgsHandled
	c.store.PutsApplied += s.PutsApplied
	c.store.PutsForwarded += s.PutsForwarded
	c.store.ReplicaWrites += s.ReplicaWrites
	c.store.ReplicaSkips += s.ReplicaSkips
	c.store.Fenced += s.Fenced
	c.store.EpochBumps += s.EpochBumps
	c.store.CfgStalePolls += s.CfgStalePolls
}

func (c *counters) addCache(s kvs.CacheStats) {
	c.cache.Hits += s.Hits
	c.cache.Fills += s.Fills
	c.cache.Probes += s.Probes
	c.cache.Invalidations += s.Invalidations
}

// addFabric reads the exported counters of either transport, looking
// through the timing wrapper.
func (c *counters) addFabric(t fabric.Transport) {
	if tt, ok := t.(*tracedTransport); ok {
		t = tt.Transport
	}
	switch f := t.(type) {
	case *fabric.Interconnect:
		c.fabReq += f.ReqSent.Load()
		c.fabRpl += f.RplSent.Load()
		c.fabBatches += f.BatchesSent.Load()
		c.fabBytes += f.Bytes.Load()
	case *fabric.ProcFabric:
		c.fabReq += f.ReqSent.Load()
		c.fabRpl += f.RplSent.Load()
		c.fabBatches += f.BatchesSent.Load()
		c.fabBytes += f.Bytes.Load()
	}
}

// diff is b−a for every counter.
func diff(a, b counters) counters {
	var d counters
	d.rmc = sonuma.RMCStats{
		WQConsumed:   b.rmc.WQConsumed - a.rmc.WQConsumed,
		LinesSent:    b.rmc.LinesSent - a.rmc.LinesSent,
		BatchesSent:  b.rmc.BatchesSent - a.rmc.BatchesSent,
		RepliesRecv:  b.rmc.RepliesRecv - a.rmc.RepliesRecv,
		RequestsRecv: b.rmc.RequestsRecv - a.rmc.RequestsRecv,
		Completions:  b.rmc.Completions - a.rmc.Completions,
		Errors:       b.rmc.Errors - a.rmc.Errors,
		TLBMisses:    b.rmc.TLBMisses - a.rmc.TLBMisses,
	}
	d.fabReq, d.fabRpl = b.fabReq-a.fabReq, b.fabRpl-a.fabRpl
	d.fabBatches, d.fabBytes = b.fabBatches-a.fabBatches, b.fabBytes-a.fabBytes
	d.store = kvs.StoreStats{
		MsgsHandled:   b.store.MsgsHandled - a.store.MsgsHandled,
		PutsApplied:   b.store.PutsApplied - a.store.PutsApplied,
		PutsForwarded: b.store.PutsForwarded - a.store.PutsForwarded,
		ReplicaWrites: b.store.ReplicaWrites - a.store.ReplicaWrites,
		ReplicaSkips:  b.store.ReplicaSkips - a.store.ReplicaSkips,
		Fenced:        b.store.Fenced - a.store.Fenced,
		EpochBumps:    b.store.EpochBumps - a.store.EpochBumps,
		CfgStalePolls: b.store.CfgStalePolls - a.store.CfgStalePolls,
	}
	d.cache = kvs.CacheStats{
		Hits:          b.cache.Hits - a.cache.Hits,
		Fills:         b.cache.Fills - a.cache.Fills,
		Probes:        b.cache.Probes - a.cache.Probes,
		Invalidations: b.cache.Invalidations - a.cache.Invalidations,
	}
	return d
}

// addCluster adds the RMC and fabric counters of every node the
// cluster hosts in this process.
func (c *counters) addCluster(cl *sonuma.Cluster) {
	for i := 0; i < cl.Nodes(); i++ {
		if n := cl.Node(i); n != nil {
			c.addRMC(n.RMCStats())
		}
	}
	c.addFabric(cl.Transport())
}

// rtSnap is one reading of the Go runtime's own counters.
type rtSnap struct {
	cpuTotal, cpuIdle float64 // /cpu/classes, cpu-seconds
	cpuGC             float64
	mutexWait         float64 // seconds
	gcCycles          uint64
	goroutines        uint64
	sched             *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/goroutines:goroutines",
	"/sched/latencies:seconds",
}

// readRuntime reads the runtime metrics. The /cpu/classes figures only
// advance at the end of a GC cycle, so callers force one right before.
func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	cnt := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	r := rtSnap{
		cpuTotal: val(0), cpuIdle: val(1), cpuGC: val(2), mutexWait: val(3),
		gcCycles: cnt(4), goroutines: cnt(5),
	}
	if s[6].Value.Kind() == metrics.KindFloat64Histogram {
		r.sched = s[6].Value.Float64Histogram()
	}
	return r
}

// phase is one measured phase and everything read around it.
type phase struct {
	recs      []*recorder
	after     *recorder // failures outside the measured calls: rate probe, sweep, teardown
	seconds   float64   // configured length
	elapsed   float64   // measured length, up to the end of the last call
	c0, c1    counters
	r0, r1    rtSnap
	mallocs   uint64 // over the measured phase
	allocB    uint64
	heapMB    float64 // HeapInuse after full GCs at the end of the phase, less the sample buffers
	fab       *tracedTransport
	fabSpans  []fabSpan
	fabOffset int64 // adds to a fabric span time to put it on the recorders' clock
}

// runPhase measures sys for seconds.
func runPhase(sys system, seconds float64, traced bool) (*phase, error) {
	p := &phase{fab: sys.transport(), seconds: seconds, after: newRecorder(time.Now(), 0, false)}
	cls := sys.clients()
	// Size the sample buffers from a short probe of the call rate, so the
	// measured phase appends without allocating.
	rate := 0.0
	for _, r := range drive(cls, 64, 0, false, 64) {
		p.after.absorb(r)
		rate += float64(r.calls) / (float64(r.last) / 1e9)
	}
	capacity := int(rate*seconds*2) + 4096

	var err error
	if p.c0, err = sys.counters(); err != nil {
		return nil, err
	}
	if p.fab != nil {
		p.fab.reset(capacity * 4)
	}
	runtime.GC()
	p.r0 = readRuntime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, b0 := ms.Mallocs, ms.TotalAlloc

	start := time.Now()
	p.recs = drive(cls, 0, seconds, traced, capacity)
	p.elapsed = time.Since(start).Seconds()

	runtime.ReadMemStats(&ms)
	p.mallocs, p.allocB = ms.Mallocs-m0, ms.TotalAlloc-b0
	if p.fab != nil {
		p.fabSpans = p.fab.stop()
		p.fabOffset = int64(p.fab.base.Sub(p.recs[0].base))
	}
	runtime.GC()
	p.r1 = readRuntime()
	// A second cycle empties the sync.Pool victim caches, whose size at
	// this instant is chance, so heap_mb counts what the system retains.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapInuse-p.benchHeap()) / (1 << 20)
	if p.c1, err = sys.counters(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *phase) fail(format string, args ...any) { p.after.fail(format, args...) }

// benchHeap is the heap the benchmark's own sample buffers hold, which
// heap_mb leaves out so that it reflects the system under test.
func (p *phase) benchHeap() uint64 {
	var n uint64
	for _, r := range p.recs {
		n += uint64(cap(r.lat))*uint64(unsafe.Sizeof(sample{})) + uint64(cap(r.spans))*uint64(unsafe.Sizeof(opSpan{}))
	}
	return n
}

// window is the throughput and latency of one slice of a phase.
type window struct{ rate, r50, r90, w50, w90 float64 }

// windows splits the phase into slices of about a second. Reporting the
// median over slices means a transient stall of the shared host moves one
// slice rather than the result.
func (p *phase) windows() []window {
	n := max(1, int(math.Round(p.seconds)))
	width := p.seconds / float64(n)
	out := make([]window, n)
	for i := range out {
		from, to := uint32(float64(i)*width*1e6), uint32(float64(i+1)*width*1e6)
		reads := samplesIn(p.recs, isRead, from, to)
		writes := samplesIn(p.recs, isWrite, from, to)
		out[i] = window{
			rate: float64(len(reads)+len(writes)) / width,
			r50:  pct(reads, 50), r90: pct(reads, 90),
			w50: pct(writes, 50), w90: pct(writes, 90),
		}
	}
	return out
}

// dropSamples releases the latency samples once they are summarised, so
// that they do not count in the next phase's heap reading.
func (p *phase) dropSamples() {
	for _, r := range p.recs {
		r.lat, r.spans = nil, nil
	}
}

func (p *phase) calls() int {
	n := 0
	for _, r := range p.recs {
		n += r.calls
	}
	return n
}

// result fills the verdict fields: attempted counts measured calls; failed
// counts failed calls, failed checks and sweep mismatches.
func (p *phase) result() *result {
	res := &result{Attempted: p.calls()}
	for _, r := range append(p.recs, p.after) {
		res.Failed += r.failed
	}
	res.Correct = res.Failed == 0
	return res
}

func (p *phase) sampleCounts() (reads, writes int) {
	for _, r := range p.recs {
		for _, s := range r.lat {
			if classIsRead[s.class] {
				reads++
			} else {
				writes++
			}
		}
	}
	return reads, writes
}

func (p *phase) errors() []string {
	var out []string
	for _, r := range append(p.recs, p.after) {
		out = append(out, r.errs...)
	}
	return out
}
