package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sonuma"
	"sonuma/internal/fabric"
	"sonuma/internal/kvs"
	"sonuma/internal/stats"
)

// Geometry shared by the kvs workloads. Buckets is raised from the default
// 128 so that 4000 keys over 32 shards (125 per shard on average) fit with
// short probe chains; every other field not set per workload is the kvs
// default.
const (
	kvsNodes    = 4
	kvsKeys     = 4000
	kvsShards   = 32
	kvsReplicas = 2
	kvsBuckets  = 512
	kvsCtx      = 3 // the context id sonuma-node daemons open their store on
	valueSize   = 64
	multiGetN   = 8
	zipfTheta   = 0.99
)

// kvsMix is one YCSB-style operation mix.
type kvsMix struct {
	putPct   int  // the rest are reads
	multiGet bool // reads are multiGetN-key MultiGets instead of Gets
	zipf     bool // key popularity: scrambled zipfian (θ=0.99) or uniform
}

type kvsSpec struct {
	mix     kvsMix
	clients int
	cfg     kvs.Config
	proc    bool // stores in sonuma-node daemons, clients on a client-only node here
}

func (s kvsSpec) params() map[string]any {
	dist := "uniform"
	if s.mix.zipf {
		dist = fmt.Sprintf("zipfian θ=%.2f", zipfTheta)
	}
	read := "get"
	if s.mix.multiGet {
		read = fmt.Sprintf("multiget x%d", multiGetN)
	}
	p := map[string]any{
		"store_nodes": kvsNodes, "clients": s.clients, "keys": kvsKeys,
		"shards": kvsShards, "replicas": kvsReplicas, "buckets": kvsBuckets,
		"value_bytes": valueSize, "put_pct": s.mix.putPct, "reads": read,
		"key_dist": dist, "read_spread": s.cfg.ReadSpread, "hot_keys": s.cfg.HotKeys,
		"rebalance": s.cfg.Rebalance, "lease": "default",
	}
	if s.proc {
		p["transport"] = "sonuma-node daemons over unix sockets; clients on a client-only node"
	}
	return p
}

func kvsWorkload(name string, warm int, spec kvsSpec, daemons *workload) *workload {
	spec.cfg.Shards, spec.cfg.Replicas, spec.cfg.Buckets = kvsShards, kvsReplicas, kvsBuckets
	return &workload{
		name: name, warmOps: warm, params: spec.params(), daemons: daemons,
		open: func(e *env, traced bool) (system, error) { return openKVS(e, spec, traced) },
	}
}

// The in-process kvs workloads run one client: with two on this 2-vCPU
// class of host, the clients and the four nodes' service goroutines
// contend for the CPUs, and scheduling delay, not the store, sets the
// spread between runs. kvs-proc is not a workload of its own: its four
// daemons and the bench process share the same CPUs and its figures do
// not repeat closely enough to gate, so it runs as the daemon phase of
// kvs-hot-read's traced run and feeds the proc.* per-layer metrics.
var (
	kvsProc = kvsWorkload("kvs-proc", 500, kvsSpec{
		mix: kvsMix{putPct: 5, zipf: true}, clients: 2,
		proc: true,
	}, nil)
	kvsHotRead = kvsWorkload("kvs-hot-read", 1000, kvsSpec{
		mix: kvsMix{putPct: 5, zipf: true}, clients: 1,
		cfg: kvs.Config{ReadSpread: true, HotKeys: kvsKeys / 8},
	}, kvsProc)
	kvsUpdate = kvsWorkload("kvs-update", 300, kvsSpec{
		mix: kvsMix{putPct: 50, multiGet: true}, clients: 1,
	}, nil)
)

// Values are self-describing, so any value read can be checked on its own:
//
//	[0,4)   key index
//	[4,8)   writer (the client owning the key)
//	[8,16)  sequence number of the writer's Put of this key
//	[16,60) filler derived from the three fields
//	[60,64) CRC-32 of bytes [0,60)
func encodeValue(dst []byte, key, writer int, seq uint64) {
	binary.LittleEndian.PutUint32(dst[0:], uint32(key))
	binary.LittleEndian.PutUint32(dst[4:], uint32(writer))
	binary.LittleEndian.PutUint64(dst[8:], seq)
	x := seq*0x9e3779b97f4a7c15 ^ uint64(key)<<20 ^ uint64(writer)
	for i := 16; i < 60; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst[i] = byte(x)
	}
	binary.LittleEndian.PutUint32(dst[60:], crc32.ChecksumIEEE(dst[:60]))
}

func decodeValue(v []byte) (key, writer int, seq uint64, ok bool) {
	if len(v) != valueSize || crc32.ChecksumIEEE(v[:60]) != binary.LittleEndian.Uint32(v[60:]) {
		return 0, 0, 0, false
	}
	return int(binary.LittleEndian.Uint32(v[0:])), int(binary.LittleEndian.Uint32(v[4:])),
		binary.LittleEndian.Uint64(v[8:]), true
}

// kvsShared is what the clients of one system know about each other's
// writes.
type kvsShared struct {
	clients int
	keys    [][]byte
	issued  []atomic.Uint64 // per key: highest sequence number handed to Put
	acked   [][]uint64      // per client, per key: last acknowledged sequence number, 0 if unknown
}

// ownerOf is the client that writes key: each client writes only its own
// share of the key space.
func (sh *kvsShared) ownerOf(key int) int { return key % sh.clients }

// checkValue verifies a value read for key by client reader.
func (sh *kvsShared) checkValue(rec *recorder, reader, key int, v []byte) {
	k, w, seq, ok := decodeValue(v)
	switch {
	case !ok:
		rec.fail("key %d: value fails its checksum (%d bytes)", key, len(v))
	case k != key:
		rec.fail("key %d: got the value of key %d", key, k)
	case w != sh.ownerOf(key):
		rec.fail("key %d: value claims writer %d, owner is %d", key, w, sh.ownerOf(key))
	case seq == 0 || seq > sh.issued[key].Load():
		rec.fail("key %d: sequence %d was never written", key, seq)
	case reader == w && sh.acked[w][key] != 0 && seq != sh.acked[w][key]:
		rec.fail("key %d: client %d read sequence %d after its own write of %d", key, reader, seq, sh.acked[w][key])
	}
}

// keyPicker draws key indices: uniform, or zipfian with YCSB's scramble
// so the popular ranks scatter over the shards.
type keyPicker struct {
	rng  *stats.RNG
	zipf *stats.Zipf
}

func (p *keyPicker) next() int {
	if p.zipf == nil {
		return p.rng.Intn(kvsKeys)
	}
	h := uint64(p.zipf.Next())
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return int(h % kvsKeys)
}

type kvsClient struct {
	id     int
	c      *kvs.Client
	store  *kvs.Store
	sh     *kvsShared
	mix    kvsMix
	local  []bool // per key: this client's node is the shard's primary
	rng    *stats.RNG
	pick   keyPicker
	traced bool
	val    []byte
	mg     [][]byte
	mgKeys [multiGetN]int
}

func newKVSClient(id int, c *kvs.Client, st *kvs.Store, sh *kvsShared, mix kvsMix, seed uint64, traced bool) *kvsClient {
	kc := &kvsClient{
		id: id, c: c, store: st, sh: sh, mix: mix, traced: traced,
		local: make([]bool, kvsKeys),
		rng:   stats.NewRNG(seed ^ uint64(id+1)*0x100000001b3),
		val:   make([]byte, valueSize),
		mg:    make([][]byte, multiGetN),
	}
	kc.pick.rng = kc.rng
	if mix.zipf {
		kc.pick.zipf = stats.NewZipf(kc.rng, kvsKeys, zipfTheta)
	}
	// Placement is fixed in these fault-free runs (no rebalancing), so
	// the primary of each shard is the first owner on the ring.
	ring := st.Ring()
	for k, key := range sh.keys {
		kc.local[k] = ring.Owners(ring.ShardOf(key))[0] == st.NodeID()
	}
	return kc
}

func (c *kvsClient) step(rec *recorder) {
	switch {
	case c.rng.Intn(100) < c.mix.putPct:
		c.put(rec, c.ownKey(c.pick.next()))
	case c.mix.multiGet:
		c.multiGet(rec)
	default:
		c.get(rec)
	}
}

// ownKey maps a drawn key onto this client's share of the key space,
// keeping its neighbourhood in the popularity order.
func (c *kvsClient) ownKey(k int) int {
	n := c.sh.clients
	k += (c.id - c.sh.ownerOf(k) + n) % n
	if k >= kvsKeys {
		k -= n
	}
	return k
}

func (c *kvsClient) put(rec *recorder, k int) {
	acked := c.sh.acked[c.id]
	seq := c.sh.issued[k].Load() + 1
	encodeValue(c.val, k, c.id, seq)
	c.sh.issued[k].Store(seq)
	cl := cPutFwd
	if c.local[k] {
		cl = cPutLocal
	}
	t := rec.now()
	err := c.c.Put(c.sh.keys[k], c.val)
	rec.done(cl, t)
	if err != nil {
		acked[k] = 0 // the write may or may not have landed
		rec.fail("put key %d: %v", k, err)
		return
	}
	acked[k] = seq
}

func (c *kvsClient) get(rec *recorder) {
	k := c.pick.next()
	var hits uint64
	if c.traced {
		hits = c.c.CacheStats().Hits
	}
	t := rec.now()
	v, err := c.c.Get(c.sh.keys[k])
	end := rec.now()
	cl := cGet
	if c.traced {
		cl = cGetMiss
		if c.c.CacheStats().Hits > hits {
			cl = cGetHit
		}
	}
	rec.record(cl, t, end)
	if err != nil {
		rec.fail("get key %d: %v", k, err)
		return
	}
	c.sh.checkValue(rec, c.id, k, v)
}

func (c *kvsClient) multiGet(rec *recorder) {
	for i := range c.mg {
		c.mgKeys[i] = c.pick.next()
		c.mg[i] = c.sh.keys[c.mgKeys[i]]
	}
	t := rec.now()
	vals, errs := c.c.MultiGet(c.mg)
	rec.done(cMultiGet, t)
	for i, k := range c.mgKeys {
		if errs[i] != nil {
			rec.fail("multiget key %d: %v", k, errs[i])
			continue
		}
		c.sh.checkValue(rec, c.id, k, vals[i])
	}
}

// kvsSystem is a booted store cluster, in-process or across daemons.
type kvsSystem struct {
	cl      *sonuma.Cluster
	pc      *sonuma.ProcCluster
	dir     string // kvs-proc socket directory
	tr      *tracedTransport
	members []int
	stores  []*kvs.Store // the stores hosted in this process
	cls     []*kvsClient
	sh      *kvsShared
}

func openKVS(e *env, spec kvsSpec, traced bool) (system, error) {
	s := &kvsSystem{sh: &kvsShared{
		clients: spec.clients,
		keys:    make([][]byte, kvsKeys),
		issued:  make([]atomic.Uint64, kvsKeys),
		acked:   make([][]uint64, spec.clients),
	}}
	for k := range s.sh.keys {
		s.sh.keys[k] = []byte(fmt.Sprintf("user%08d", k))
	}
	for i := range s.sh.acked {
		s.sh.acked[i] = make([]uint64, kvsKeys)
	}
	for i := 0; i < kvsNodes; i++ {
		s.members = append(s.members, i)
	}
	var clientStores []*kvs.Store
	var err error
	if spec.proc {
		clientStores, err = s.bootProc(e, spec.cfg)
	} else {
		clientStores, err = s.bootInProcess(spec.cfg, traced)
	}
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	for i := 0; i < spec.clients; i++ {
		st := clientStores[i%len(clientStores)]
		c, err := st.NewClient()
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.cls = append(s.cls, newKVSClient(i, c, st, s.sh, spec.mix, e.seed, traced))
	}
	if err := s.preload(); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

// bootInProcess builds the 4-node cluster with a store on every node;
// client i attaches to the store of node i.
func (s *kvsSystem) bootInProcess(cfg kvs.Config, traced bool) ([]*kvs.Store, error) {
	var err error
	if traced {
		s.tr = newTracedTransport(fabric.NewInterconnect(fabric.NewCrossbar(kvsNodes), 0))
		s.cl, err = sonuma.NewClusterWithTransport(sonuma.Config{}, s.tr, s.members)
	} else {
		s.cl, err = sonuma.NewCluster(sonuma.Config{Nodes: kvsNodes})
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < kvsNodes; i++ {
		ctx, err := s.cl.Node(i).OpenContext(kvsCtx, cfg.SegmentSize(kvsNodes)+4096)
		if err != nil {
			return nil, err
		}
		st, err := kvs.Open(ctx, cfg)
		if err != nil {
			return nil, err
		}
		s.stores = append(s.stores, st)
	}
	return s.stores, nil
}

// bootProc starts one sonuma-node daemon per store member and hosts a
// client-only node (outside the ring) in this process for the clients.
func (s *kvsSystem) bootProc(e *env, cfg kvs.Config) ([]*kvs.Store, error) {
	cfg.Members = s.members
	blob, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	// A short relative path keeps the socket names under the unix-socket
	// path limit wherever the checkout lives; the daemons inherit the
	// working directory.
	s.dir = filepath.Join(e.out, fmt.Sprintf("p%d.%d", os.Getpid(), e.boots))
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	local := kvsNodes
	s.pc, err = sonuma.StartProcCluster(sonuma.ProcOptions{
		Nodes:         kvsNodes + 1,
		Daemons:       s.members,
		Local:         []int{local},
		Dir:           s.dir,
		BinPath:       e.nodeBin,
		ServiceConfig: blob,
	})
	if err != nil {
		return nil, err
	}
	ctx, err := s.pc.Cluster().Node(local).OpenContext(kvsCtx, cfg.SegmentSize(kvsNodes+1)+4096)
	if err != nil {
		return nil, err
	}
	st, err := kvs.Open(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s.stores = append(s.stores, st)
	return s.stores, nil
}

// preload writes every key once, each client its own share, in parallel.
func (s *kvsSystem) preload() error {
	errs := make([]error, len(s.cls))
	var wg sync.WaitGroup
	for i, c := range s.cls {
		wg.Add(1)
		go func(i int, c *kvsClient) {
			defer wg.Done()
			rec := newRecorder(time.Now(), kvsKeys, false)
			for k := c.id; k < kvsKeys; k += s.sh.clients {
				c.put(rec, k)
			}
			if rec.failed > 0 {
				errs[i] = fmt.Errorf("preload: %s", strings.Join(rec.errs, "; "))
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *kvsSystem) clients() []client {
	out := make([]client, len(s.cls))
	for i, c := range s.cls {
		out[i] = c
	}
	return out
}

func (s *kvsSystem) transport() *tracedTransport { return s.tr }

func (s *kvsSystem) counters() (counters, error) {
	var c counters
	if s.pc != nil {
		c.addCluster(s.pc.Cluster())
		for _, id := range s.members {
			info, err := s.pc.Info(id)
			if err != nil {
				return c, err
			}
			var st kvs.StoreStats
			if err := json.Unmarshal(info.Stats, &st); err != nil {
				return c, fmt.Errorf("daemon n%d stats: %w", id, err)
			}
			c.addStore(st)
		}
	} else {
		c.addCluster(s.cl)
	}
	for _, st := range s.stores {
		c.addStore(st.Stats())
	}
	for _, kc := range s.cls {
		c.addCache(kc.c.CacheStats())
	}
	return c, nil
}

// sweep reads every key from every replica and checks that each holds the
// last acknowledged value. Each client sweeps the keys it owns, in
// parallel.
func (s *kvsSystem) sweep(rec *recorder) {
	recs := make([]*recorder, len(s.cls))
	var wg sync.WaitGroup
	for i, kc := range s.cls {
		recs[i] = newRecorder(time.Now(), 0, false)
		wg.Add(1)
		go func(kc *kvsClient, rec *recorder) {
			defer wg.Done()
			r := kc.store.Ring()
			for k := kc.id; k < kvsKeys; k += s.sh.clients {
				key, want := s.sh.keys[k], s.sh.acked[kc.id][k]
				for _, node := range r.Owners(r.ShardOf(key)) {
					v, err := kc.c.GetReplica(node, key)
					if err != nil {
						rec.fail("sweep: key %d on replica %d: %v", k, node, err)
						continue
					}
					_, _, seq, ok := decodeValue(v)
					if !ok || (want != 0 && seq != want) {
						rec.fail("sweep: key %d on replica %d holds sequence %d, last acknowledged %d", k, node, seq, want)
					}
				}
			}
		}(kc, recs[i])
	}
	wg.Wait()
	for _, r := range recs {
		rec.absorb(r)
	}
}

// close tears the system down. For kvs-proc it then checks that no daemon
// process and no socket directory is left behind.
func (s *kvsSystem) close() error {
	for _, st := range s.stores {
		st.Close()
	}
	if s.cl != nil {
		s.cl.Close()
	}
	if s.pc != nil {
		s.pc.Close()
	}
	if s.dir == "" {
		return nil
	}
	var errs []error
	if err := os.RemoveAll(s.dir); err != nil {
		errs = append(errs, err)
	}
	if _, err := os.Stat(s.dir); !os.IsNotExist(err) {
		errs = append(errs, fmt.Errorf("socket directory %s left behind", s.dir))
	}
	if pids := daemonsUsing(s.dir); len(pids) > 0 {
		for _, pid := range pids {
			_ = syscall.Kill(pid, syscall.SIGKILL) // best effort; reported below
		}
		errs = append(errs, fmt.Errorf("daemons %v still running after close", pids))
	}
	return errors.Join(errs...)
}

// daemonsUsing lists the processes whose command line names dir.
func daemonsUsing(dir string) []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var pids []int
	for _, e := range ents {
		var pid int
		if _, err := fmt.Sscanf(e.Name(), "%d", &pid); err != nil {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil {
			continue
		}
		for _, arg := range strings.Split(string(raw), "\x00") {
			if arg == dir {
				pids = append(pids, pid)
				break
			}
		}
	}
	return pids
}
