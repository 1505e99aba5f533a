package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// class names one kind of public call. Every call a workload makes is
// timed into exactly one class; the read/write split of the end-to-end
// metrics is a fixed property of the class.
type class uint8

const (
	cRead64   class = iota // QP.Read, 64 B
	cRead4K                // QP.Read, 4 KB
	cBatch8                // Batch of 8×64 B reads, SubmitWait
	cWrite64               // QP.Write, 64 B
	cWrite4K               // QP.Write, 4 KB
	cAtomic                // QP.FetchAdd or QP.CompareSwap
	cGet                   // kvs Client.Get, untraced
	cGetHit                // kvs Client.Get answered by the hot-key cache (traced)
	cGetMiss               // kvs Client.Get that left the client (traced)
	cMultiGet              // kvs Client.MultiGet
	cPutLocal              // kvs Client.Put whose shard primary is the client's node
	cPutFwd                // kvs Client.Put forwarded to a remote primary
	numClasses
)

var classIsRead = [numClasses]bool{
	cRead64: true, cRead4K: true, cBatch8: true,
	cGet: true, cGetHit: true, cGetMiss: true, cMultiGet: true,
}

// opSpan is one timed call, in nanoseconds since the recorder's base.
type opSpan struct {
	start, end int64
	class      class
}

// recorder collects one client goroutine's samples. It is owned by that
// goroutine until the phase ends, and its buffers are sized before the
// phase starts so that recording allocates nothing while allocations are
// being counted.
type recorder struct {
	base   time.Time
	lat    []sample
	spans  []opSpan // traced phases only
	traced bool
	calls  int
	failed int
	errs   []string // first few failure descriptions
	last   int64    // end of the latest call
}

// sample is one call's latency in ns.
type sample struct {
	ns    uint32 // latency
	endUs uint32 // end of the call, µs since the recorder's base
	class class
}

func newRecorder(base time.Time, capacity int, traced bool) *recorder {
	r := &recorder{base: base, traced: traced, lat: make([]sample, 0, capacity)}
	if traced {
		r.spans = make([]opSpan, 0, capacity)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// done records one call of class c that started at start and ends now.
func (r *recorder) done(c class, start int64) { r.record(c, start, r.now()) }

// record records one call of class c that ran from start to end.
func (r *recorder) record(c class, start, end int64) {
	d := end - start
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	r.lat = append(r.lat, sample{uint32(d), uint32(end / 1e3), c})
	if r.traced {
		r.spans = append(r.spans, opSpan{start, end, c})
	}
	r.calls++
	r.last = end
}

// fail counts a failed call or a failed check. The description is kept
// for the report only for the first few failures.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// absorb adds o's failures to r.
func (r *recorder) absorb(o *recorder) {
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
	if len(r.errs) > 5 {
		r.errs = r.errs[:5]
	}
}

// samples merges the latency samples of the given classes across
// recorders, sorted, in microseconds.
func samples(recs []*recorder, pick func(class) bool) []float64 {
	return samplesIn(recs, pick, 0, math.MaxUint32)
}

// samplesIn is samples restricted to calls that ended in [fromUs, toUs).
func samplesIn(recs []*recorder, pick func(class) bool, fromUs, toUs uint32) []float64 {
	var out []float64
	for _, r := range recs {
		for _, s := range r.lat {
			if pick(s.class) && s.endUs >= fromUs && s.endUs < toUs {
				out = append(out, float64(s.ns)/1e3)
			}
		}
	}
	sort.Float64s(out)
	return out
}

func isClass(cs ...class) func(class) bool {
	return func(c class) bool {
		for _, x := range cs {
			if x == c {
				return true
			}
		}
		return false
	}
}

func isRead(c class) bool  { return classIsRead[c] }
func isWrite(c class) bool { return !classIsRead[c] }

// pct is the p-th percentile (0..100) of sorted values by linear
// interpolation between closest ranks; 0 when there are no values.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return pct(s, 50)
}
