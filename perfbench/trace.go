package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sonuma/internal/core"
	"sonuma/internal/fabric"
	"sonuma/internal/proto"
)

// Fabric span kinds.
const (
	spanRequest uint8 = iota // LaneFor → Account on the requesting node, credit wait included
	spanReply                // inside SendBatch on the replying node
)

// fabSpan is one fabric span, in nanoseconds since the wrapper's base.
type fabSpan struct {
	start, end int64
	node       int32
	kind       uint8
}

// tracedTransport wraps the fabric.Transport handed to
// sonuma.NewClusterWithTransport and times the calls the RMC pipelines make
// into it. Spans stay in memory until the phase ends.
//
// A request's Account carries no node id. Each node's request pipeline is
// one goroutine that calls LaneFor and, once the send went through,
// Account, so a request span is closed against the open LaneFor with the
// latest start: any other open one belongs to a pipeline still waiting for
// a credit. With a single requesting node (rmc-mix) the match is exact.
type tracedTransport struct {
	fabric.Transport
	laneFor atomic.Uint64
	on      atomic.Bool
	base    time.Time // written only while off

	mu      sync.Mutex
	pending []int64 // per node: start of the open LaneFor, 0 if none
	spans   []fabSpan
}

func newTracedTransport(t fabric.Transport) *tracedTransport {
	return &tracedTransport{Transport: t, pending: make([]int64, t.Nodes())}
}

// reset starts recording, with room for capacity spans.
func (t *tracedTransport) reset(capacity int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.base = time.Now()
	t.spans = make([]fabSpan, 0, capacity)
	clear(t.pending)
	t.laneFor.Store(0)
	t.on.Store(true)
}

// stop ends recording and hands over the spans.
func (t *tracedTransport) stop() []fabSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on.Store(false)
	s := t.spans
	t.spans = nil
	return s
}

func (t *tracedTransport) now() int64 { return int64(time.Since(t.base)) }

func (t *tracedTransport) LaneFor(kind proto.Kind, src, dst core.NodeID) (chan<- *proto.Batch, error) {
	if !t.on.Load() || kind != proto.KindRequest {
		return t.Transport.LaneFor(kind, src, dst)
	}
	start := t.now()
	lane, err := t.Transport.LaneFor(kind, src, dst)
	t.laneFor.Add(1)
	t.mu.Lock()
	if err != nil {
		t.pending[src] = 0
	} else if t.pending[src] == 0 {
		t.pending[src] = start
	}
	t.mu.Unlock()
	return lane, err
}

func (t *tracedTransport) Account(kind proto.Kind, packets, wireBytes int) {
	t.Transport.Account(kind, packets, wireBytes)
	if kind != proto.KindRequest {
		return
	}
	if !t.on.Load() {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	best := -1
	for i, s := range t.pending {
		if s != 0 && (best < 0 || s > t.pending[best]) {
			best = i
		}
	}
	if best >= 0 {
		t.spans = append(t.spans, fabSpan{t.pending[best], end, int32(best), spanRequest})
		t.pending[best] = 0
	}
}

func (t *tracedTransport) SendBatch(b *proto.Batch) error {
	// The receiver owns b once the send succeeds: read it first.
	kind, src := b.Kind(), b.Src()
	if !t.on.Load() || kind != proto.KindReply {
		return t.Transport.SendBatch(b)
	}
	start := t.now()
	err := t.Transport.SendBatch(b)
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, fabSpan{start, end, int32(src), spanReply})
	t.mu.Unlock()
	return err
}

// fabricTimes sums request and reply span time, in seconds.
func fabricTimes(spans []fabSpan) (req, rpl float64) {
	for _, s := range spans {
		d := float64(s.end-s.start) / 1e9
		if s.kind == spanRequest {
			req += d
		} else {
			rpl += d
		}
	}
	return req, rpl
}

// selfTime is the total time of the op spans not covered by any fabric
// span, in seconds. Op spans are on the recorder's clock and fabric spans
// on the wrapper's; offset converts the latter into the former.
func selfTime(ops []opSpan, fab []fabSpan, offset int64) float64 {
	f := make([]fabSpan, len(fab))
	copy(f, fab)
	sort.Slice(f, func(i, j int) bool { return f[i].start < f[j].start })
	o := make([]opSpan, len(ops))
	copy(o, ops)
	sort.Slice(o, func(i, j int) bool { return o[i].start < o[j].start })
	var self int64
	j := 0
	for _, op := range o {
		for j < len(f) && f[j].end+offset <= op.start {
			j++
		}
		covered := int64(0)
		cur := op.start // everything before cur is accounted for
		for k := j; k < len(f) && f[k].start+offset < op.end; k++ {
			s, e := max(f[k].start+offset, cur), min(f[k].end+offset, op.end)
			if e > s {
				covered += e - s
				cur = e
			}
		}
		self += op.end - op.start - covered
	}
	return float64(self) / 1e9
}

// writeSpans writes the traced phase's op and fabric spans, on the op
// spans' clock, to a gzipped CSV under dir, replacing the previous file of the same workload, and
// returns its path.
func writeSpans(dir, name string, p *phase) (string, error) {
	path := filepath.Join(dir, "trace", name+".spans.csv.gz")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "layer,kind,actor,start_ns,end_ns")
	for ci, r := range p.recs {
		for _, s := range r.spans {
			fmt.Fprintf(w, "op,%s,client%d,%d,%d\n", classNames[s.class], ci, s.start, s.end)
		}
	}
	kinds := [...]string{spanRequest: "request", spanReply: "reply"}
	for _, s := range p.fabSpans {
		fmt.Fprintf(w, "fabric,%s,node%d,%d,%d\n", kinds[s.kind], s.node, s.start+p.fabOffset, s.end+p.fabOffset)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

var classNames = [numClasses]string{
	cRead64: "read64", cRead4K: "read4k", cBatch8: "batch8", cWrite64: "write64",
	cWrite4K: "write4k", cAtomic: "atomic", cGet: "get", cGetHit: "get_hit",
	cGetMiss: "get_miss", cMultiGet: "multiget", cPutLocal: "put_local", cPutFwd: "put_fwd",
}
