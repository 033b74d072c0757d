package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scaffold-go/multisimd/internal/cas"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

// schedKey identifies one leaf characterization input up to (but not
// including) the communication model: what the fine-grained scheduler
// sees. Content-addressing via the fingerprint means structurally
// identical leaves — even across programs — share entries.
type schedKey struct {
	fp     ir.Fingerprint
	config string // scheduler name + tuning knobs
	w, d   int
}

// commKey extends schedKey with the communication options, the full key
// of one characterized (width, config) point.
type commKey struct {
	sk   schedKey
	comm comm.Options
}

// commEntry is a fully characterized leaf width: the zero-communication
// schedule length plus the movement-expanded cost. It is all the
// hierarchical composition needs, so a hit here skips scheduling and
// analysis entirely.
type commEntry struct {
	zeroLen int64
	cycles  int64
	globals int64
	locals  int64
}

// entryOf is the characterization of a schedule of steps timesteps
// whose movement summary is sum.
func entryOf(steps int, sum comm.Summary) commEntry {
	return commEntry{zeroLen: int64(steps), cycles: sum.Cycles, globals: sum.GlobalMoves, locals: sum.LocalMoves}
}

// schedEntry is the schedule layer's value: the movement profile of a
// zero-communication schedule, which prices any comm options, and the
// byte charge of that schedule (scheduleSize), taken before it was
// dropped.
type schedEntry struct {
	mv   *comm.Movement
	size int64
}

// Content-address domains for the persistent layers. The version
// suffix is part of the key: an incompatible payload-encoding change
// bumps it and old records simply stop matching.
const (
	casDomainComm = "evalcache/comm/v1"
	casDomainCP   = "evalcache/cp/v1"
)

// cacheLayer names one of EvalCache's three layers. The order is
// load-bearing: hit and miss index the counters laid out pairwise in
// the same order.
type cacheLayer uint8

const (
	layerComm cacheLayer = iota
	layerSched
	layerCP
	numLayers
)

func (l cacheLayer) hit() cacheCounter  { return cacheCounter(2 * l) }
func (l cacheLayer) miss() cacheCounter { return cacheCounter(2*l + 1) }

// persisted reports whether the layer reaches the stores. Composition
// reads only comm entries and critical paths, so only those persist;
// movement profiles live in memory and are recomputed once evicted or
// after a restart.
func (l cacheLayer) persisted() bool { return l != layerSched }

// memKey is the one memory key of all three layers: the comm layer
// fills every field, the schedule layer leaves comm zero, and the
// critical-path layer keys on the fingerprint alone.
type memKey struct {
	layer cacheLayer
	sk    schedKey
	comm  comm.Options
}

func (k commKey) memKey() memKey { return memKey{layer: layerComm, sk: k.sk, comm: k.comm} }

func cpKey(fp ir.Fingerprint) memKey { return memKey{layer: layerCP, sk: schedKey{fp: fp}} }

// casKey derives a persisted layer's key. These bytes are the on-disk
// contract: committed corpora (bench/baselines/cas) only hit while they
// stay exactly as they are.
func (k memKey) casKey() cas.Key {
	if k.layer == layerCP {
		return cas.NewKey(casDomainCP, k.sk.fp[:])
	}
	var wd [16]byte
	binary.LittleEndian.PutUint64(wd[0:8], uint64(k.sk.w))
	binary.LittleEndian.PutUint64(wd[8:16], uint64(k.sk.d))
	// %+v renders every comm.Options field by name, so a future option
	// automatically changes the key instead of silently aliasing records
	// characterized under a different movement model.
	return cas.NewKey(casDomainComm, k.sk.fp[:], []byte(k.sk.config), wd[:],
		[]byte(fmt.Sprintf("%+v", k.comm)))
}

// encodePayload is the write half of the persisted layers' codec: a
// commEntry is four little-endian words, a critical path one.
func encodePayload(v any) []byte {
	if e, ok := v.(commEntry); ok {
		b := make([]byte, 0, 32)
		for _, x := range [4]int64{e.zeroLen, e.cycles, e.globals, e.locals} {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
		return b
	}
	return binary.LittleEndian.AppendUint64(nil, uint64(v.(int64)))
}

// decodePayload is the read half. false marks a record of a stale shape
// that this build cannot use.
func decodePayload(layer cacheLayer, b []byte) (any, bool) {
	word := func(i int) int64 { return int64(binary.LittleEndian.Uint64(b[8*i:])) }
	if layer == layerComm {
		if len(b) != 32 {
			return nil, false
		}
		return commEntry{zeroLen: word(0), cycles: word(1), globals: word(2), locals: word(3)}, true
	}
	if len(b) != 8 {
		return nil, false
	}
	return word(0), true
}

// CacheStats counts EvalCache traffic, split by layer. A "schedule" hit
// with a "comm" miss is the sweep fast path: the zero-communication
// schedule's movement profile is reused and only priced under the new
// movement options. Disk counters cover the persisted comm and cp
// layers (schedule lookups never reach the stores): DiskHits are
// lookups the memory front missed but a disk record served (they are
// also counted as hits of their logical layer), DiskMisses went all the
// way through and will recompute. Entry counts and byte sizes are
// absolute occupancy, not traffic.
type CacheStats struct {
	CommHits     int64
	CommMisses   int64
	SchedHits    int64
	SchedMisses  int64
	CPHits       int64
	CPMisses     int64
	DiskHits     int64
	DiskMisses   int64
	DiskWrites   int64
	DiskCorrupt  int64
	MemEvictions int64
	SchedEntries int
	CommEntries  int
	MemBytes     int64
	DiskEntries  int
	DiskBytes    int64
}

// CommHitRate is the comm-layer hit fraction (0 when the layer is
// untouched), the headline number of qbench's perf records.
func (s CacheStats) CommHitRate() float64 {
	total := s.CommHits + s.CommMisses
	if total == 0 {
		return 0
	}
	return float64(s.CommHits) / float64(total)
}

// Sub returns the per-layer traffic accumulated since an earlier
// snapshot (entry counts and byte sizes are carried over as-is — they
// are absolute).
func (s CacheStats) Sub(earlier CacheStats) CacheStats {
	return CacheStats{
		CommHits:     s.CommHits - earlier.CommHits,
		CommMisses:   s.CommMisses - earlier.CommMisses,
		SchedHits:    s.SchedHits - earlier.SchedHits,
		SchedMisses:  s.SchedMisses - earlier.SchedMisses,
		CPHits:       s.CPHits - earlier.CPHits,
		CPMisses:     s.CPMisses - earlier.CPMisses,
		DiskHits:     s.DiskHits - earlier.DiskHits,
		DiskMisses:   s.DiskMisses - earlier.DiskMisses,
		DiskWrites:   s.DiskWrites - earlier.DiskWrites,
		DiskCorrupt:  s.DiskCorrupt - earlier.DiskCorrupt,
		MemEvictions: s.MemEvictions - earlier.MemEvictions,
		SchedEntries: s.SchedEntries,
		CommEntries:  s.CommEntries,
		MemBytes:     s.MemBytes,
		DiskEntries:  s.DiskEntries,
		DiskBytes:    s.DiskBytes,
	}
}

// cacheCounter indexes the one counter vector that stripes keep as
// plain int64s and recorders as atomics. Hits and misses come in
// cacheLayer order; the traffic counters precede ctrEvictions, which
// only stripes count.
type cacheCounter int

const (
	ctrCommHit cacheCounter = iota
	ctrCommMiss
	ctrSchedHit
	ctrSchedMiss
	ctrCPHit
	ctrCPMiss
	ctrDiskHit
	ctrDiskMiss
	ctrEvictions
	numCounters
)

// counterMetric names each traffic counter's eval_cache.* metric.
var counterMetric = [ctrEvictions]string{
	ctrCommHit:   "eval_cache.comm.hits",
	ctrCommMiss:  "eval_cache.comm.misses",
	ctrSchedHit:  "eval_cache.sched.hits",
	ctrSchedMiss: "eval_cache.sched.misses",
	ctrCPHit:     "eval_cache.cp.hits",
	ctrCPMiss:    "eval_cache.cp.misses",
	ctrDiskHit:   "eval_cache.disk.hits",
	ctrDiskMiss:  "eval_cache.disk.misses",
}

type counters [numCounters]int64

// stats folds a counter vector into the traffic fields of CacheStats.
func (v *counters) stats() CacheStats {
	return CacheStats{
		CommHits:     v[ctrCommHit],
		CommMisses:   v[ctrCommMiss],
		SchedHits:    v[ctrSchedHit],
		SchedMisses:  v[ctrSchedMiss],
		CPHits:       v[ctrCPHit],
		CPMisses:     v[ctrCPMiss],
		DiskHits:     v[ctrDiskHit],
		DiskMisses:   v[ctrDiskMiss],
		MemEvictions: v[ctrEvictions],
	}
}

// CacheRecorder is a per-evaluation view of cache traffic. The shared
// EvalCache serves many concurrent evaluations; its global counters
// cannot attribute a hit to a request. Every cache lookup therefore
// also increments the recorder the engine was handed
// (EvalOptions.CacheStats), giving each run an exact, bleed-free
// delta — this is what the service's access-log `cache` blocks report.
// All methods are nil-safe; the zero value is ready to use.
type CacheRecorder struct {
	n [numCounters]atomic.Int64
}

func (r *CacheRecorder) add(c cacheCounter) {
	if r != nil {
		r.n[c].Add(1)
	}
}

func (r *CacheRecorder) counts() counters {
	var v counters
	if r != nil {
		for i := range r.n {
			v[i] = r.n[i].Load()
		}
	}
	return v
}

// Stats snapshots the recorder as a CacheStats (traffic fields only;
// occupancy belongs to the shared cache). Nil receivers return zero.
func (r *CacheRecorder) Stats() CacheStats {
	v := r.counts()
	return v.stats()
}

// cacheStripes is the lock-striping fan-out. Stripes are selected by
// the first fingerprint byte (a sha256 byte: uniform), so concurrent
// lookups of different leaves almost never share a lock.
const cacheStripes = 64

// lruNode is one memory-resident entry of any layer, threaded on its
// stripe's recency list. val is a commEntry, a schedEntry or an int64
// critical path, per key.layer.
type lruNode struct {
	prev, next *lruNode
	key        memKey
	val        any
	size       int64
}

// cacheStripe is 1/64th of the memory front: one map, one recency list
// and one counter vector, all guarded by one mutex, so a stripe's entry
// counts and counters are always mutually consistent (a Stats fold
// never observes misses < entries).
type cacheStripe struct {
	mu      sync.Mutex
	entries map[memKey]*lruNode
	lru     lruNode        // sentinel: lru.next is most recent
	live    [numLayers]int // resident entries per layer
	bytes   int64
	n       counters
}

func (n *lruNode) unlink() {
	n.prev.next = n.next
	n.next.prev = n.prev
}

func (st *cacheStripe) pushFront(n *lruNode) {
	n.prev = &st.lru
	n.next = st.lru.next
	n.prev.next = n
	n.next.prev = n
}

// CacheConfig configures a persistent EvalCache (see OpenEvalCache).
// The zero value is a memory-only, unbounded cache — exactly what
// NewEvalCache returns.
type CacheConfig struct {
	// Dir is the read-write persistent store; "" keeps the cache
	// memory-only. Safe to share between processes.
	Dir string
	// Preload is a read-only seed store (e.g. the committed
	// bench/baselines/cas corpus) consulted after Dir on memory misses;
	// never written.
	Preload string
	// MemEntries bounds memory-resident entries of all three layers (0 =
	// unbounded). The bound is enforced per stripe at MemEntries/64.
	MemEntries int
	// MemBytes bounds estimated memory-resident bytes the same way.
	MemBytes int64
	// DiskBytes bounds the read-write store; background compaction
	// evicts least-recently-used records past it once a minute (0 =
	// unbounded).
	DiskBytes int64
}

// EvalCache memoizes leaf characterizations across Evaluate calls. It
// is safe for concurrent use — the evaluation engine's workers read and
// write it while fanning out — and transparent: a warm cache returns
// byte-identical Metrics to a cold run because schedulers are
// deterministic and entries are keyed by everything they observe
// (content fingerprint, scheduler configuration, width, data
// parallelism, comm options).
//
// Three layers serve the experiment sweeps:
//
//   - the comm layer caches finished characterizations, hit when a
//     sweep repeats an exact configuration (fig6 and fig7 run the same
//     evaluations; fig9's k sweep shares all smaller widths);
//   - the schedule layer caches the movement profile of each
//     zero-communication schedule (comm.Movement), not the schedule:
//     hit when only comm options changed (fig8's local-capacity sweep),
//     it is priced under the new options without rescheduling or
//     re-reading the leaf's ops;
//   - the critical-path layer caches per-fingerprint DAG depths.
//
// All three share one lookup path (get) and one insert path (put). The
// memory front is sharded into 64 lock stripes keyed by fingerprint
// prefix, each one map and one LRU list under an optional budget.
// Behind the comm and critical-path layers — all that composition
// reads — sit up to two content-addressed disk stores (internal/cas): a
// read-write store that persists every result write-through (so
// restarts start warm and memory eviction never loses a
// characterization) and an optional read-only seed store preloaded from
// a committed corpus. The schedule layer is memory-only: an evicted or
// pre-restart profile is recomputed from a fresh schedule. Disk records
// are versioned and checksummed; a torn or corrupt record is a miss,
// never a crash.
type EvalCache struct {
	stripes    [cacheStripes]*cacheStripe
	maxEntries int   // per stripe; 0 = unbounded
	maxBytes   int64 // per stripe; 0 = unbounded

	disk *cas.Store // read-write; nil when memory-only
	seed *cas.Store // read-only preload; nil when absent
}

// NewEvalCache returns an empty, memory-only, unbounded cache.
func NewEvalCache() *EvalCache {
	c, _ := OpenEvalCache(CacheConfig{})
	return c
}

// OpenEvalCache builds a cache per cfg, opening (and creating) the
// persistent stores when configured. Close the cache when done to stop
// background compaction.
func OpenEvalCache(cfg CacheConfig) (*EvalCache, error) {
	c := &EvalCache{}
	for i := range c.stripes {
		st := &cacheStripe{entries: map[memKey]*lruNode{}}
		st.lru.next, st.lru.prev = &st.lru, &st.lru
		c.stripes[i] = st
	}
	if cfg.MemEntries > 0 {
		c.maxEntries = (cfg.MemEntries + cacheStripes - 1) / cacheStripes
	}
	if cfg.MemBytes > 0 {
		c.maxBytes = (cfg.MemBytes + cacheStripes - 1) / cacheStripes
	}
	if cfg.Dir != "" {
		disk, err := cas.Open(cas.Options{
			Dir:          cfg.Dir,
			MaxBytes:     cfg.DiskBytes,
			CompactEvery: time.Minute,
		})
		if err != nil {
			return nil, fmt.Errorf("core: cache dir: %w", err)
		}
		c.disk = disk
	}
	if cfg.Preload != "" {
		seed, err := cas.Open(cas.Options{Dir: cfg.Preload, ReadOnly: true})
		if err != nil {
			if c.disk != nil {
				c.disk.Close()
			}
			return nil, fmt.Errorf("core: cache preload: %w", err)
		}
		c.seed = seed
	}
	return c, nil
}

// Close stops the persistent stores' background work. Memory-only
// caches need no Close (it is a no-op).
func (c *EvalCache) Close() {
	if c.disk != nil {
		c.disk.Close()
	}
	if c.seed != nil {
		c.seed.Close()
	}
}

func (c *EvalCache) stripe(fp ir.Fingerprint) *cacheStripe {
	return c.stripes[fp[0]&(cacheStripes-1)]
}

func (c *EvalCache) hasDisk() bool { return c.disk != nil || c.seed != nil }

// diskGet consults the read-write store, then the read-only seed.
func (c *EvalCache) diskGet(k cas.Key) ([]byte, bool) {
	if c.disk != nil {
		if b, ok := c.disk.Get(k); ok {
			return b, true
		}
	}
	if c.seed != nil {
		if b, ok := c.seed.Get(k); ok {
			return b, true
		}
	}
	return nil, false
}

// Stats snapshots traffic and occupancy. Each stripe is folded under
// its own lock, so the per-stripe invariant (entries never exceed
// misses plus disk hits) holds in every snapshot: it is never torn.
func (c *EvalCache) Stats() CacheStats {
	var n counters
	var live [numLayers]int
	var memBytes int64
	for _, st := range c.stripes {
		st.mu.Lock()
		for i, x := range st.n {
			n[i] += x
		}
		for l, x := range st.live {
			live[l] += x
		}
		memBytes += st.bytes
		st.mu.Unlock()
	}
	out := n.stats()
	out.SchedEntries = live[layerSched]
	out.CommEntries = live[layerComm]
	out.MemBytes = memBytes
	if c.disk != nil {
		ds := c.disk.Stats()
		out.DiskWrites += ds.Writes
		out.DiskCorrupt += ds.Corrupt
		out.DiskEntries += ds.Entries
		out.DiskBytes += ds.Bytes
	}
	if c.seed != nil {
		ss := c.seed.Stats()
		out.DiskCorrupt += ss.Corrupt
		out.DiskEntries += ss.Entries
		out.DiskBytes += ss.Bytes
	}
	return out
}

// entrySize is a value's charge against the byte budget. Comm entries
// and critical paths are a fixed node; a schedule-layer entry carries
// its own charge (scheduleSize).
const commEntrySize = 192

func entrySize(v any) int64 {
	if e, ok := v.(schedEntry); ok {
		return e.size
	}
	return commEntrySize
}

// scheduleSize is the byte charge of a schedule-layer entry: the
// footprint of the schedule its profile was built from, header, op slab
// and offsets (4 B per op and per region-step), an 8 B summary per step
// and 96 B per op of its materialized module. The profile itself is
// several times smaller and pins no module, so the charge overcounts —
// for a budget, too big is the safe direction — and it keeps the
// budget's eviction decisions what they were when the layer held
// schedules.
func scheduleSize(s *schedule.Schedule) int64 {
	steps := int64(len(s.Steps))
	sz := 256 + 8*steps + 4*(int64(s.TotalOps())+steps*int64(s.K)+1)
	if s.M != nil {
		sz += 96 * int64(len(s.M.Ops))
	}
	return sz
}

// insert makes v the memory entry for k and returns it — or, when k is
// already resident, refreshes that entry's recency and returns its
// value, so racing fills converge on one. A new entry then evicts from
// the cold end until the stripe is back under budget; the fresh node is
// never evicted. Write-through persistence means evicting a comm entry
// or critical path just drops memory — the disk layer still has the
// record. Caller holds st.mu.
func (c *EvalCache) insert(st *cacheStripe, k memKey, v any) any {
	if n, ok := st.entries[k]; ok {
		n.unlink()
		st.pushFront(n)
		return n.val
	}
	n := &lruNode{key: k, val: v, size: entrySize(v)}
	st.entries[k] = n
	st.live[k.layer]++
	st.pushFront(n)
	st.bytes += n.size
	for (c.maxEntries > 0 && len(st.entries) > c.maxEntries) || (c.maxBytes > 0 && st.bytes > c.maxBytes) {
		victim := st.lru.prev
		if victim == n {
			break
		}
		victim.unlink()
		delete(st.entries, victim.key)
		st.live[victim.key.layer]--
		st.bytes -= victim.size
		st.n[ctrEvictions]++
	}
	return v
}

// get is every layer's lookup: the memory stripe, then, for a persisted
// layer, the read-write store and the read-only seed. A disk record is
// decoded outside the stripe lock and promoted into memory; one that
// does not decode is stale and deleted. Each lookup counts one layer
// hit or miss, plus a disk hit or miss when it reached the stores, on
// the stripe and on rec.
func (c *EvalCache) get(k memKey, rec *CacheRecorder) (any, bool) {
	st := c.stripe(k.sk.fp)
	st.mu.Lock()
	if n, ok := st.entries[k]; ok {
		n.unlink()
		st.pushFront(n)
		st.n[k.layer.hit()]++
		st.mu.Unlock()
		rec.add(k.layer.hit())
		return n.val, true
	}
	if !c.hasDisk() || !k.layer.persisted() {
		st.n[k.layer.miss()]++
		st.mu.Unlock()
		rec.add(k.layer.miss())
		return nil, false
	}
	st.mu.Unlock()

	ck := k.casKey()
	if payload, ok := c.diskGet(ck); ok {
		if v, ok := decodePayload(k.layer, payload); ok {
			st.mu.Lock()
			v = c.insert(st, k, v)
			st.n[k.layer.hit()]++
			st.n[ctrDiskHit]++
			st.mu.Unlock()
			rec.add(k.layer.hit())
			rec.add(ctrDiskHit)
			return v, true
		}
		if c.disk != nil {
			c.disk.Delete(ck)
		}
	}
	st.mu.Lock()
	st.n[k.layer.miss()]++
	st.n[ctrDiskMiss]++
	st.mu.Unlock()
	rec.add(k.layer.miss())
	rec.add(ctrDiskMiss)
	return nil, false
}

// put is every layer's insert: into memory (an already-resident entry
// keeps its value), then, for a persisted layer, write-through to the
// read-write store.
func (c *EvalCache) put(k memKey, v any) {
	st := c.stripe(k.sk.fp)
	st.mu.Lock()
	c.insert(st, k, v)
	st.mu.Unlock()
	if c.disk != nil && k.layer.persisted() {
		c.disk.Put(k.casKey(), encodePayload(v))
	}
}

// replace makes v the entry for k of a persisted layer whatever is
// resident, and rewrites its read-write record: how an audit corrects
// an entry it rejected, which put (a resident entry keeps its value)
// cannot do. Both layers' nodes are fixed-size, so a resident node
// keeps its size.
func (c *EvalCache) replace(k memKey, v any) {
	st := c.stripe(k.sk.fp)
	st.mu.Lock()
	if n, ok := st.entries[k]; ok {
		n.val = v
	} else {
		c.insert(st, k, v)
	}
	st.mu.Unlock()
	if c.disk != nil {
		ck := k.casKey()
		c.disk.Delete(ck)
		c.disk.Put(ck, encodePayload(v))
	}
}

// commResult looks up a finished characterization.
func (c *EvalCache) commResult(k commKey, rec *CacheRecorder) (commEntry, bool) {
	v, _ := c.get(k.memKey(), rec)
	e, ok := v.(commEntry)
	return e, ok
}

func (c *EvalCache) putCommResult(k commKey, e commEntry) { c.put(k.memKey(), e) }

// movement looks up a zero-communication schedule's movement profile
// (memory only).
func (c *EvalCache) movement(k schedKey, rec *CacheRecorder) (*comm.Movement, bool) {
	v, _ := c.get(memKey{layer: layerSched, sk: k}, rec)
	e, ok := v.(schedEntry)
	return e.mv, ok
}

// putMovement caches mv, the movement profile of schedule s, charged
// as s.
func (c *EvalCache) putMovement(k schedKey, s *schedule.Schedule, mv *comm.Movement) {
	c.put(memKey{layer: layerSched, sk: k}, schedEntry{mv: mv, size: scheduleSize(s)})
}

// criticalPath looks up a leaf's DAG depth.
func (c *EvalCache) criticalPath(fp ir.Fingerprint, rec *CacheRecorder) (int64, bool) {
	v, _ := c.get(cpKey(fp), rec)
	cp, ok := v.(int64)
	return cp, ok
}

func (c *EvalCache) putCriticalPath(fp ir.Fingerprint, cp int64) { c.put(cpKey(fp), cp) }
