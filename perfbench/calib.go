package main

import (
	"fmt"
	"time"

	"sonuma"
	"sonuma/internal/core"
	"sonuma/internal/proto"
	"sonuma/internal/qpring"
)

// Calibration probes time the bottom rungs of the stack in isolation: the
// WQ/CQ rings, the packet pool and codec, and a 64 B remote read issued
// synchronously and pipelined at full QP depth on an otherwise idle
// 2-node cluster. Each probe is repeated calibReps times and reports its
// median.
const calibReps = 5

type calibration struct {
	wqPostPollNs, cqPostPollNs     float64
	batch32Ns                      float64
	marshal64Ns, unmarshal64Ns     float64
	syncRead64P50Us, asyncRead64Us float64
}

func calibrate() (calibration, error) {
	var c calibration
	c.wqPostPollNs = medianOf(func() float64 { return timePerOp(200000, wqPostPoll()) })
	c.cqPostPollNs = medianOf(func() float64 { return timePerOp(200000, cqPostPoll()) })
	c.batch32Ns = medianOf(func() float64 { return timePerOp(20000, batch32Cycle) })
	pkt, wire := codecPacket()
	buf := make([]byte, 0, proto.MaxPacketSize)
	c.marshal64Ns = medianOf(func() float64 {
		return timePerOp(200000, func() { buf, _ = pkt.Marshal(buf) })
	})
	var into proto.Packet
	c.unmarshal64Ns = medianOf(func() float64 {
		return timePerOp(200000, func() { _ = proto.UnmarshalInto(&into, wire) })
	})
	var err error
	c.syncRead64P50Us, c.asyncRead64Us, err = qpProbe()
	return c, err
}

func medianOf(f func() float64) float64 {
	v := make([]float64, calibReps)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

// timePerOp runs f n times and returns the mean ns per call.
func timePerOp(n int, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func wqPostPoll() func() {
	wq := qpring.NewWQ(128)
	e := qpring.WQEntry{Op: core.OpRead, Node: 1, Length: core.CacheLineSize}
	return func() {
		wq.Post(e)
		wq.Poll()
	}
}

func cqPostPoll() func() {
	cq := qpring.NewCQ(128)
	var e qpring.CQEntry
	return func() {
		cq.Post(e)
		cq.Poll()
	}
}

// batch32Cycle fills a pooled batch with 32 pooled packets and frees it,
// the per-batch pool traffic of a 2 KB transfer.
func batch32Cycle() {
	b := proto.AllocBatch()
	for i := 0; i < proto.MaxBatch; i++ {
		p := proto.AllocPacket()
		p.Kind, p.Src, p.Dst = proto.KindRequest, 0, 1
		b.Append(p)
	}
	proto.FreeBatchPackets(b)
}

// codecPacket is a read reply carrying one 64 B line, and its encoding.
func codecPacket() (*proto.Packet, []byte) {
	p := &proto.Packet{Kind: proto.KindReply, Op: core.OpRead, Src: 1, Dst: 0, Offset: 4096}
	line := p.AllocPayload(core.CacheLineSize)
	for i := range line {
		line[i] = byte(i)
	}
	wire, err := p.Marshal(nil)
	if err != nil {
		panic(fmt.Sprintf("marshal of a valid packet failed: %v", err))
	}
	return p, wire
}

// qpProbe measures 64 B reads on an idle 2-node cluster: the p50 of
// synchronous Reads, and the per-read time of ReadAsync pipelined at full
// QP depth.
func qpProbe() (syncP50Us, asyncUs float64, err error) {
	cl, err := sonuma.NewCluster(sonuma.Config{Nodes: 2})
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	src, err := cl.Node(0).OpenContext(rmcCtx, 64<<10)
	if err != nil {
		return 0, 0, err
	}
	if _, err := cl.Node(1).OpenContext(rmcCtx, 1<<20); err != nil {
		return 0, 0, err
	}
	qp, err := src.NewQP(0)
	if err != nil {
		return 0, 0, err
	}
	buf, err := src.AllocBuffer(qp.Depth() * lineSize)
	if err != nil {
		return 0, 0, err
	}
	const syncOps = 5000
	lat := make([]float64, syncOps)
	for i := range lat {
		t := time.Now()
		if err := qp.Read(1, uint64(i%16384)*lineSize, buf, 0, lineSize); err != nil {
			return 0, 0, err
		}
		lat[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	const asyncOps = 50000
	runs := make([]float64, calibReps)
	for r := range runs {
		start := time.Now()
		for i := 0; i < asyncOps; i++ {
			slot := i % qp.Depth()
			if _, err := qp.ReadAsync(1, uint64(i%16384)*lineSize, buf, slot*lineSize, lineSize, nil); err != nil {
				return 0, 0, err
			}
			qp.Poll()
		}
		if err := qp.DrainCQ(); err != nil {
			return 0, 0, err
		}
		runs[r] = float64(time.Since(start).Nanoseconds()) / 1e3 / asyncOps
	}
	return median(lat), median(runs), nil
}
