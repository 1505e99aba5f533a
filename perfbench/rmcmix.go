package main

import (
	"bytes"
	"encoding/binary"

	"sonuma"
	"sonuma/internal/fabric"
	"sonuma/internal/stats"
)

// rmc-mix geometry. The remote segment spans 16× the RMC TLB's reach
// (32 entries × 8 KB pages), so uniformly drawn offsets keep translation
// misses on the path.
const (
	rmcSegment = 4 << 20
	rmcCtx     = 1
	rmcTarget  = 1 // the node whose segment the client reads and writes
	lineSize   = 64
	bigSize    = 4096
	batchOps   = 8
)

var rmcMix = &workload{
	name:    "rmc-mix",
	warmOps: 2000,
	params: map[string]any{
		"nodes": 2, "clients": 1, "segment_bytes": rmcSegment,
		"mix_pct": map[string]int{
			"read64": 60, "write64": 10, "fetch_add": 5, "compare_swap": 5,
			"read4k": 10, "write4k": 5, "batch8x64_read": 5,
		},
	},
	open: openRMC,
}

type rmcSystem struct {
	cl  *sonuma.Cluster
	tr  *tracedTransport
	cli *rmcClient
}

// rmcClient issues synchronous operations on one QP and keeps a shadow
// copy of the remote segment that every result is checked against.
type rmcClient struct {
	qp     *sonuma.QP
	buf    *sonuma.Buffer // [0,bigSize): single ops; then batchOps lines for batches
	batch  *sonuma.Batch
	shadow []byte
	rng    *stats.RNG
	offs   [batchOps]uint64
}

func openRMC(e *env, traced bool) (system, error) {
	s := &rmcSystem{}
	var err error
	if traced {
		s.tr = newTracedTransport(fabric.NewInterconnect(fabric.NewCrossbar(2), 0))
		s.cl, err = sonuma.NewClusterWithTransport(sonuma.Config{}, s.tr, []int{0, 1})
	} else {
		s.cl, err = sonuma.NewCluster(sonuma.Config{Nodes: 2})
	}
	if err != nil {
		return nil, err
	}
	fail := func(err error) (system, error) {
		s.cl.Close()
		return nil, err
	}
	src, err := s.cl.Node(0).OpenContext(rmcCtx, 64<<10)
	if err != nil {
		return fail(err)
	}
	dst, err := s.cl.Node(rmcTarget).OpenContext(rmcCtx, rmcSegment)
	if err != nil {
		return fail(err)
	}
	c := &rmcClient{shadow: make([]byte, rmcSegment), rng: stats.NewRNG(e.seed)}
	fillWords(c.shadow, stats.NewRNG(e.seed^0x5eed))
	if err := dst.Memory().WriteAt(0, c.shadow); err != nil {
		return fail(err)
	}
	if c.qp, err = src.NewQP(0); err != nil {
		return fail(err)
	}
	if c.buf, err = src.AllocBuffer(bigSize + batchOps*lineSize); err != nil {
		return fail(err)
	}
	c.batch = c.qp.NewBatch()
	s.cli = c
	return s, nil
}

func fillWords(p []byte, rng *stats.RNG) {
	for i := 0; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], rng.Uint64())
	}
}

func (s *rmcSystem) clients() []client           { return []client{s.cli} }
func (s *rmcSystem) transport() *tracedTransport { return s.tr }
func (s *rmcSystem) close() error                { s.cl.Close(); return nil }
func (s *rmcSystem) counters() (counters, error) { var c counters; c.addCluster(s.cl); return c, nil }
func (s *rmcSystem) sweep(rec *recorder)         { s.cli.sweep(rec) }
func (c *rmcClient) lineOffset(n int) uint64 {
	return uint64(c.rng.Intn((rmcSegment-n)/lineSize+1) * lineSize)
}
func (c *rmcClient) wordOffset() uint64           { return uint64(c.rng.Intn(rmcSegment/8) * 8) }
func (c *rmcClient) shadowWord(off uint64) uint64 { return binary.LittleEndian.Uint64(c.shadow[off:]) }
func (c *rmcClient) setShadowWord(off, v uint64)  { binary.LittleEndian.PutUint64(c.shadow[off:], v) }

func (c *rmcClient) step(rec *recorder) {
	switch r := c.rng.Intn(100); {
	case r < 60:
		c.read(rec, cRead64, lineSize)
	case r < 70:
		c.write(rec, cWrite64, lineSize)
	case r < 75:
		c.fetchAdd(rec)
	case r < 80:
		c.compareSwap(rec)
	case r < 90:
		c.read(rec, cRead4K, bigSize)
	case r < 95:
		c.write(rec, cWrite4K, bigSize)
	default:
		c.batchRead(rec)
	}
}

func (c *rmcClient) read(rec *recorder, cl class, n int) {
	off := c.lineOffset(n)
	t := rec.now()
	err := c.qp.Read(rmcTarget, off, c.buf, 0, n)
	rec.done(cl, t)
	if err != nil {
		rec.fail("read %d B at %#x: %v", n, off, err)
		return
	}
	c.check(rec, c.buf.Bytes()[:n], off)
}

func (c *rmcClient) check(rec *recorder, got []byte, off uint64) {
	if !bytes.Equal(got, c.shadow[off:off+uint64(len(got))]) {
		rec.fail("read %d B at %#x returned data that differs from the last write", len(got), off)
	}
}

func (c *rmcClient) write(rec *recorder, cl class, n int) {
	off := c.lineOffset(n)
	data := c.buf.Bytes()[:n]
	fillWords(data, c.rng)
	t := rec.now()
	err := c.qp.Write(rmcTarget, off, c.buf, 0, n)
	rec.done(cl, t)
	if err != nil {
		rec.fail("write %d B at %#x: %v", n, off, err)
		return
	}
	copy(c.shadow[off:], data)
}

func (c *rmcClient) fetchAdd(rec *recorder) {
	off, delta := c.wordOffset(), c.rng.Uint64()>>40
	want := c.shadowWord(off)
	t := rec.now()
	old, err := c.qp.FetchAdd(rmcTarget, off, delta)
	rec.done(cAtomic, t)
	if err != nil {
		rec.fail("fetch-add at %#x: %v", off, err)
		return
	}
	checkWord(rec, "fetch-add", off, old, want)
	c.setShadowWord(off, want+delta)
}

// compareSwap expects the current value half the time, so both the
// swapping and the failing outcome are checked.
func (c *rmcClient) compareSwap(rec *recorder) {
	off := c.wordOffset()
	cur := c.shadowWord(off)
	expected, newv := cur, c.rng.Uint64()
	if c.rng.Intn(2) == 0 {
		expected ^= 1
	}
	t := rec.now()
	old, err := c.qp.CompareSwap(rmcTarget, off, expected, newv)
	rec.done(cAtomic, t)
	if err != nil {
		rec.fail("compare-swap at %#x: %v", off, err)
		return
	}
	checkWord(rec, "compare-swap", off, old, cur)
	if expected == cur {
		c.setShadowWord(off, newv)
	}
}

// checkWord checks the previous value an atomic returned against the
// shadow copy.
func checkWord(rec *recorder, op string, off, got, want uint64) {
	if got != want {
		rec.fail("%s at %#x returned %#x, want %#x", op, off, got, want)
	}
}

func (c *rmcClient) batchRead(rec *recorder) {
	for i := range c.offs {
		c.offs[i] = c.lineOffset(lineSize)
	}
	t := rec.now()
	for i, off := range c.offs {
		c.batch.Read(rmcTarget, off, c.buf, bigSize+i*lineSize, lineSize, nil)
	}
	err := c.batch.SubmitWait()
	rec.done(cBatch8, t)
	if err != nil {
		rec.fail("batch of %d reads: %v", batchOps, err)
		return
	}
	got := c.buf.Bytes()[bigSize:]
	for i, off := range c.offs {
		c.check(rec, got[i*lineSize:(i+1)*lineSize], off)
	}
}

// sweep reads the whole remote segment back and compares it with the
// shadow copy.
func (c *rmcClient) sweep(rec *recorder) {
	for off := uint64(0); off < rmcSegment; off += bigSize {
		if err := c.qp.Read(rmcTarget, off, c.buf, 0, bigSize); err != nil {
			rec.fail("sweep read at %#x: %v", off, err)
			continue
		}
		if !bytes.Equal(c.buf.Bytes()[:bigSize], c.shadow[off:off+bigSize]) {
			rec.fail("sweep: remote segment at %#x differs from the shadow copy", off)
		}
	}
}
