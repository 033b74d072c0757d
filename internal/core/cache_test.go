package core

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/scaffold-go/multisimd/internal/cas"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

// TestCacheLayerAccounting drives each cache layer directly: a lookup
// before a put counts a miss, after a put counts a hit, and the layers
// never bleed into each other's counters.
func TestCacheLayerAccounting(t *testing.T) {
	c := NewEvalCache()
	fp := ir.Fingerprint{1, 2, 3}
	sk := schedKey{fp: fp, config: "test", w: 4, d: 0}
	ck := commKey{sk: sk, comm: comm.Options{LocalCapacity: -1}}

	if _, ok := c.movement(sk, nil); ok {
		t.Fatal("empty cache returned a movement profile")
	}
	mv := emptyMovement(t, 4)
	c.putMovement(sk, &schedule.Schedule{K: 4}, mv)
	if got, ok := c.movement(sk, nil); !ok || got != mv {
		t.Fatal("put movement profile not returned")
	}
	if _, ok := c.commResult(ck, nil); ok {
		t.Fatal("empty comm layer returned an entry")
	}
	c.putCommResult(ck, commEntry{zeroLen: 7, cycles: 21})
	if e, ok := c.commResult(ck, nil); !ok || e.cycles != 21 {
		t.Fatal("put comm entry not returned")
	}
	if _, ok := c.criticalPath(fp, nil); ok {
		t.Fatal("empty cp layer returned an entry")
	}
	c.putCriticalPath(fp, 99)
	if cp, ok := c.criticalPath(fp, nil); !ok || cp != 99 {
		t.Fatal("put critical path not returned")
	}

	got := c.Stats()
	if got.MemBytes <= 0 {
		t.Errorf("MemBytes = %d, want > 0", got.MemBytes)
	}
	got.MemBytes = 0
	want := CacheStats{
		CommHits: 1, CommMisses: 1,
		SchedHits: 1, SchedMisses: 1,
		CPHits: 1, CPMisses: 1,
		SchedEntries: 1, CommEntries: 1,
	}
	if got != want {
		t.Errorf("Stats() = %+v, want %+v", got, want)
	}
}

// TestCacheKeyDiscrimination pins the layering: a different comm option
// misses the comm layer while the same schedKey still hits the schedule
// layer (the fig8 sweep fast path), and a different width misses both.
func TestCacheKeyDiscrimination(t *testing.T) {
	c := NewEvalCache()
	sk := schedKey{config: "rcp", w: 4}
	c.putMovement(sk, &schedule.Schedule{K: 4}, emptyMovement(t, 4))
	c.putCommResult(commKey{sk: sk}, commEntry{cycles: 5})

	if _, ok := c.commResult(commKey{sk: sk, comm: comm.Options{LocalCapacity: 8}}, nil); ok {
		t.Error("comm layer hit across different comm options")
	}
	if _, ok := c.movement(sk, nil); !ok {
		t.Error("schedule layer missed its exact key")
	}
	if _, ok := c.movement(schedKey{config: "rcp", w: 2}, nil); ok {
		t.Error("schedule layer hit across different widths")
	}
	st := c.Stats()
	if st.SchedHits != 1 || st.SchedMisses != 1 || st.CommMisses != 1 {
		t.Errorf("unexpected traffic: %+v", st)
	}
}

// TestCacheStatsHelpers checks the Sub delta and the hit-rate maths.
func TestCacheStatsHelpers(t *testing.T) {
	a := CacheStats{
		CommHits: 10, CommMisses: 2, SchedHits: 4,
		DiskHits: 6, DiskMisses: 3, DiskWrites: 9, MemEvictions: 4,
		SchedEntries: 3, CommEntries: 5, MemBytes: 100, DiskEntries: 7, DiskBytes: 900,
	}
	b := CacheStats{CommHits: 4, CommMisses: 1, SchedHits: 1, DiskHits: 2, DiskWrites: 4, MemEvictions: 1}
	d := a.Sub(b)
	if d.CommHits != 6 || d.CommMisses != 1 || d.SchedHits != 3 {
		t.Errorf("Sub = %+v", d)
	}
	if d.DiskHits != 4 || d.DiskMisses != 3 || d.DiskWrites != 5 || d.MemEvictions != 3 {
		t.Errorf("Sub disk traffic = %+v", d)
	}
	if d.SchedEntries != 3 || d.CommEntries != 5 || d.MemBytes != 100 || d.DiskEntries != 7 || d.DiskBytes != 900 {
		t.Errorf("Sub dropped absolute occupancy: %+v", d)
	}
	if got := (CacheStats{CommHits: 3, CommMisses: 1}).CommHitRate(); got != 0.75 {
		t.Errorf("CommHitRate = %v, want 0.75", got)
	}
	if got := (CacheStats{}).CommHitRate(); got != 0 {
		t.Errorf("CommHitRate of empty stats = %v, want 0", got)
	}
}

// TestCacheCountersConcurrent hammers all three layers from many
// goroutines so -race exercises the striped counters, then checks the
// global totals and that per-goroutine recorders sum exactly to them —
// the attribution contract the service's access logs depend on — for
// every traffic counter. The disk-backed input sends each comm and cp
// miss through the store as well; schedule misses never reach it.
func TestCacheCountersConcurrent(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		c, err := OpenEvalCache(CacheConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sk := schedKey{config: "x", w: 1}
		c.putMovement(sk, &schedule.Schedule{K: 1}, emptyMovement(t, 1))
		c.putCommResult(commKey{sk: sk}, commEntry{})
		c.putCriticalPath(ir.Fingerprint{1}, 1)
		before := c.Stats()
		const goroutines, iters = 8, 100
		recs := make([]*CacheRecorder, goroutines)
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			recs[i] = &CacheRecorder{}
			wg.Add(1)
			go func(rec *CacheRecorder) {
				defer wg.Done()
				for j := 0; j < iters; j++ {
					c.movement(sk, rec)                    // hit
					c.movement(schedKey{config: "y"}, rec) // miss
					c.commResult(commKey{sk: sk}, rec)     // hit
					c.commResult(commKey{}, rec)           // miss
					c.criticalPath(ir.Fingerprint{1}, rec) // hit
					c.criticalPath(ir.Fingerprint{2}, rec) // miss
				}
			}(recs[i])
		}
		wg.Wait()
		st := c.Stats().Sub(before)
		n := int64(goroutines * iters)
		if st.SchedHits != n || st.SchedMisses != n || st.CommHits != n || st.CommMisses != n ||
			st.CPHits != n || st.CPMisses != n {
			t.Errorf("lost counts under concurrency: %+v (want %d per column)", st, n)
		}
		wantDiskMisses := int64(0)
		if dir != "" {
			wantDiskMisses = 2 * n
		}
		if st.DiskHits != 0 || st.DiskMisses != wantDiskMisses {
			t.Errorf("disk traffic = %d hits, %d misses; want 0, %d", st.DiskHits, st.DiskMisses, wantDiskMisses)
		}
		var sum counters
		for _, rec := range recs {
			rs := rec.counts()
			for i := range sum {
				sum[i] += rs[i]
			}
		}
		traffic := CacheStats{
			CommHits: st.CommHits, CommMisses: st.CommMisses,
			SchedHits: st.SchedHits, SchedMisses: st.SchedMisses,
			CPHits: st.CPHits, CPMisses: st.CPMisses,
			DiskHits: st.DiskHits, DiskMisses: st.DiskMisses,
		}
		if got := sum.stats(); got != traffic {
			t.Errorf("recorder sum %+v != global delta %+v", got, traffic)
		}
	}
}

// cacheHit is a memory hit of one layer on the i-th stripe (mod 64).
type cacheHit struct {
	layer string
	hit   func(i int)
}

// cacheHitFixture fills one memory-only cache with an entry per layer
// on each of the 64 stripes and returns a memory hit of each layer.
func cacheHitFixture(tb testing.TB) []cacheHit {
	c := NewEvalCache()
	keys := make([]schedKey, cacheStripes)
	for i := range keys {
		keys[i] = schedKey{fp: ir.Fingerprint{byte(i)}, config: "rcp", w: 4}
		c.putMovement(keys[i], &schedule.Schedule{K: 4}, emptyMovement(tb, 4))
		c.putCommResult(commKey{sk: keys[i]}, commEntry{cycles: 1})
		c.putCriticalPath(keys[i].fp, 1000) // > 255: boxing it would allocate
	}
	rec := &CacheRecorder{}
	return []cacheHit{
		{"comm", func(i int) { c.commResult(commKey{sk: keys[i%cacheStripes]}, rec) }},
		{"sched", func(i int) { c.movement(keys[i%cacheStripes], rec) }},
		{"cp", func(i int) { c.criticalPath(keys[i%cacheStripes].fp, rec) }},
	}
}

// TestCacheHitAllocs: a memory hit allocates nothing in any layer, so
// no layer's value is boxed on the hit path.
func TestCacheHitAllocs(t *testing.T) {
	for _, h := range cacheHitFixture(t) {
		if a := testing.AllocsPerRun(100, func() { h.hit(7) }); a != 0 {
			t.Errorf("%s memory hit: %v allocs, want 0", h.layer, a)
		}
	}
}

// BenchmarkCacheHit measures parallel memory hits spread over every
// stripe, one sub-benchmark per layer.
func BenchmarkCacheHit(b *testing.B) {
	for _, h := range cacheHitFixture(b) {
		b.Run(h.layer, func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					h.hit(i)
				}
			})
		})
	}
}

// sameStripeKey builds the i-th schedKey landing on stripe 0, so
// eviction tests control exactly which stripe fills up.
func sameStripeKey(i int) commKey {
	var fp ir.Fingerprint
	fp[1] = byte(i)
	fp[2] = byte(i >> 8)
	return commKey{sk: schedKey{fp: fp, config: "ev", w: 1}}
}

// TestCacheMemEntryBudget: with a per-stripe entry budget of 2, the
// least-recently-used entry of a stripe is evicted on overflow — and a
// fresh Get keeps an entry alive (true LRU, not FIFO).
func TestCacheMemEntryBudget(t *testing.T) {
	// MemEntries is a global budget split across 64 stripes.
	c, err := OpenEvalCache(CacheConfig{MemEntries: 2 * cacheStripes})
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := sameStripeKey(1), sameStripeKey(2), sameStripeKey(3)
	c.putCommResult(a, commEntry{cycles: 1})
	c.putCommResult(b, commEntry{cycles: 2})
	if _, ok := c.commResult(a, nil); !ok { // a is now most recent
		t.Fatal("a missing before overflow")
	}
	c.putCommResult(d, commEntry{cycles: 3}) // evicts b, the coldest
	if _, ok := c.commResult(b, nil); ok {
		t.Error("LRU victim b survived eviction")
	}
	for _, k := range []commKey{a, d} {
		if _, ok := c.commResult(k, nil); !ok {
			t.Errorf("entry %v evicted out of LRU order", k.sk.fp[:3])
		}
	}
	st := c.Stats()
	if st.MemEvictions != 1 || st.CommEntries != 2 {
		t.Errorf("stats = %+v; want 1 eviction, 2 entries", st)
	}
}

// TestCacheMemByteBudget: the byte budget evicts as well.
func TestCacheMemByteBudget(t *testing.T) {
	c, err := OpenEvalCache(CacheConfig{MemBytes: commEntrySize * cacheStripes})
	if err != nil {
		t.Fatal(err)
	}
	c.putCommResult(sameStripeKey(1), commEntry{})
	c.putCommResult(sameStripeKey(2), commEntry{})
	st := c.Stats()
	if st.CommEntries != 1 || st.MemEvictions != 1 {
		t.Errorf("stats = %+v; want 1 entry after byte-budget eviction", st)
	}
	if st.MemBytes > commEntrySize {
		t.Errorf("MemBytes = %d over per-stripe budget %d", st.MemBytes, commEntrySize)
	}
}

// TestCacheCPBudget: critical-path entries live under both memory
// budgets like the other layers — on a stripe with room for one entry,
// every further fingerprint evicts the coldest.
func TestCacheCPBudget(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{MemEntries: cacheStripes},
		{MemBytes: commEntrySize * cacheStripes},
	} {
		c, err := OpenEvalCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const n = 20
		for i := 1; i <= n; i++ {
			c.putCriticalPath(sameStripeKey(i).sk.fp, int64(i))
		}
		st := c.Stats()
		if st.MemEvictions != n-1 || st.MemBytes > commEntrySize {
			t.Errorf("%+v: stats = %+v; want %d evictions, MemBytes <= %d", cfg, st, n-1, commEntrySize)
		}
		if _, ok := c.criticalPath(sameStripeKey(1).sk.fp, nil); ok {
			t.Errorf("%+v: coldest critical path survived eviction", cfg)
		}
		if cp, ok := c.criticalPath(sameStripeKey(n).sk.fp, nil); !ok || cp != n {
			t.Errorf("%+v: newest critical path = %d, %v; want %d", cfg, cp, ok, n)
		}
	}
}

// TestCachePersistentRoundTrip is the restart story: comm entries and
// critical paths written by one cache instance are served —
// byte-identical — by a fresh instance over the same directory, counted
// as disk hits. Movement profiles are memory-only: the fresh instance
// misses them without touching the stores.
func TestCachePersistentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fp := ir.Fingerprint{5}
	sk := schedKey{fp: fp, config: "rcp", w: 2}
	ck := commKey{sk: sk, comm: comm.Options{LocalCapacity: 4}}

	c1, err := OpenEvalCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// A real leaf's schedule and profile; a build that persisted
	// schedules would have written the schedule as a third record.
	m := ir.NewModule("leaf", []ir.Reg{{Name: "q", Size: 1}}, nil)
	m.Gate(0, 0)
	s := schedule.Sequential(m, 2)
	mv, err := comm.NewMovement(s)
	if err != nil {
		t.Fatal(err)
	}
	c1.putMovement(sk, s, mv)
	c1.putCommResult(ck, commEntry{zeroLen: 1, cycles: 9, globals: 2, locals: 3})
	c1.putCriticalPath(fp, 17)
	if st := c1.Stats(); st.DiskWrites != 2 || st.DiskEntries != 2 {
		t.Errorf("store after three puts = %+v; want 2 writes, 2 entries", st)
	}
	c1.Close()

	c2, err := OpenEvalCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rec := &CacheRecorder{}
	e, ok := c2.commResult(ck, rec)
	if !ok || (e != commEntry{zeroLen: 1, cycles: 9, globals: 2, locals: 3}) {
		t.Fatalf("comm round trip = %+v, %v", e, ok)
	}
	cp, ok := c2.criticalPath(fp, rec)
	if !ok || cp != 17 {
		t.Fatalf("cp round trip = %d, %v", cp, ok)
	}
	if _, ok := c2.movement(sk, rec); ok {
		t.Fatal("movement profile served after a restart")
	}
	if rs := rec.Stats(); rs.DiskHits != 2 || rs.DiskMisses != 0 || rs.SchedMisses != 1 {
		t.Errorf("recorder = %+v; want 2 disk hits, no disk miss, 1 sched miss", rs)
	}
	// Promoted into memory: a repeat lookup is a pure memory hit.
	beforeRepeat := c2.Stats()
	if _, ok := c2.commResult(ck, nil); !ok {
		t.Fatal("promoted entry missing")
	}
	if d := c2.Stats().Sub(beforeRepeat); d.DiskHits != 0 || d.CommHits != 1 {
		t.Errorf("repeat lookup delta = %+v; want pure memory hit", d)
	}
}

// TestCachePreloadSeed: a read-only seed corpus (CacheConfig.Preload)
// serves hits without being written or mutated.
func TestCachePreloadSeed(t *testing.T) {
	seedDir := t.TempDir()
	fp := ir.Fingerprint{42}
	ck := commKey{sk: schedKey{fp: fp, config: "rcp", w: 4}}
	w, err := OpenEvalCache(CacheConfig{Dir: seedDir})
	if err != nil {
		t.Fatal(err)
	}
	w.putCommResult(ck, commEntry{cycles: 5})
	w.Close()

	rwDir := t.TempDir()
	c, err := OpenEvalCache(CacheConfig{Dir: rwDir, Preload: seedDir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if e, ok := c.commResult(ck, nil); !ok || e.cycles != 5 {
		t.Fatalf("seed lookup = %+v, %v", e, ok)
	}
	// New results land in the read-write dir, never the seed.
	other := commKey{sk: schedKey{fp: ir.Fingerprint{43}, config: "rcp", w: 4}}
	c.putCommResult(other, commEntry{cycles: 6})
	seedOnly, err := OpenEvalCache(CacheConfig{Preload: seedDir})
	if err != nil {
		t.Fatal(err)
	}
	defer seedOnly.Close()
	if _, ok := seedOnly.commResult(other, nil); ok {
		t.Error("write leaked into the read-only seed corpus")
	}
}

// TestCacheStaleScheduleRecordIsMiss: a store written by a build that
// persisted schedules still holds evalcache/sched/v1 records. The
// schedule layer never reads them: a lookup misses without touching the
// stores, and the record is left in place for compaction to age out.
func TestCacheStaleScheduleRecordIsMiss(t *testing.T) {
	dir := t.TempDir()
	sk := schedKey{fp: ir.Fingerprint{8}, config: "rcp", w: 2}
	var wd [16]byte
	binary.LittleEndian.PutUint64(wd[0:8], uint64(sk.w))
	store, err := cas.Open(cas.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	store.Put(cas.NewKey("evalcache/sched/v1", sk.fp[:], []byte(sk.config), wd[:]), []byte(`{"schema":1}`))
	store.Close()

	c, err := OpenEvalCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.movement(sk, nil); ok {
		t.Fatal("persisted schedule record served")
	}
	if st := c.Stats(); st.SchedMisses != 1 || st.DiskHits != 0 || st.DiskMisses != 0 || st.DiskEntries != 1 {
		t.Errorf("stats = %+v; want 1 sched miss, no disk traffic, the record kept", st)
	}
}

// TestCacheStaleCPRecordIsMiss: a critical-path record of the wrong
// shape (a stale corpus from an incompatible build) is a miss, and the
// lookup deletes it so later lookups do not re-read it.
func TestCacheStaleCPRecordIsMiss(t *testing.T) {
	dir := t.TempDir()
	fp := ir.Fingerprint{9}
	store, err := cas.Open(cas.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	store.Put(cas.NewKey("evalcache/cp/v1", fp[:]), make([]byte, 9))
	store.Close()

	c, err := OpenEvalCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.criticalPath(fp, nil); ok {
		t.Fatal("9-byte critical-path record served as a hit")
	}
	if st := c.Stats(); st.DiskEntries != 0 {
		t.Errorf("stale record kept: %d disk entries", st.DiskEntries)
	}
	before := c.Stats()
	if _, ok := c.criticalPath(fp, nil); ok {
		t.Fatal("second lookup of a stale record hit")
	}
	if d := c.Stats().Sub(before); d.DiskHits != 0 || d.DiskMisses != 1 || d.CPMisses != 1 {
		t.Errorf("second lookup delta = %+v; want one cp and disk miss", d)
	}
}

// TestCacheEvictedEntryServedFromDisk: write-through persistence means
// memory eviction costs a disk read, not a recompute, in the comm and
// critical-path layers alike.
func TestCacheEvictedEntryServedFromDisk(t *testing.T) {
	for _, layer := range []struct {
		name string
		put  func(c *EvalCache, i int, v int64)
		get  func(c *EvalCache, i int) (int64, bool)
	}{
		{"comm",
			func(c *EvalCache, i int, v int64) { c.putCommResult(sameStripeKey(i), commEntry{cycles: v}) },
			func(c *EvalCache, i int) (int64, bool) {
				e, ok := c.commResult(sameStripeKey(i), nil)
				return e.cycles, ok
			}},
		{"cp",
			func(c *EvalCache, i int, v int64) { c.putCriticalPath(sameStripeKey(i).sk.fp, v) },
			func(c *EvalCache, i int) (int64, bool) { return c.criticalPath(sameStripeKey(i).sk.fp, nil) }},
	} {
		dir := t.TempDir()
		c, err := OpenEvalCache(CacheConfig{Dir: dir, MemEntries: cacheStripes}) // 1 per stripe
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		layer.put(c, 1, 11)
		layer.put(c, 2, 22) // evicts 1 from memory
		v, ok := layer.get(c, 1)
		if !ok || v != 11 {
			t.Fatalf("%s: evicted entry not restored from disk: %d, %v", layer.name, v, ok)
		}
		st := c.Stats()
		if st.MemEvictions < 1 || st.DiskHits != 1 {
			t.Errorf("%s: stats = %+v; want eviction + disk hit", layer.name, st)
		}
	}
}

// TestCacheSurvivesAbruptStop is the kill-9 half of the crash-safety
// contract at the cache level: no Close, no flush — every completed Put
// of a persisted layer must already be durable (write-through + atomic
// rename), and a fresh cache over the directory serves identical values.
func TestCacheSurvivesAbruptStop(t *testing.T) {
	dir := t.TempDir()
	fp := ir.Fingerprint{6}
	ck := commKey{sk: schedKey{fp: fp, config: "lpfs", w: 2}}
	want := commEntry{zeroLen: 2, cycles: 7, globals: 1, locals: 4}
	c1, err := OpenEvalCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.putCommResult(ck, want)
	c1.putCriticalPath(fp, 3)
	// Simulated kill -9: c1 is abandoned, never Closed.

	c2, err := OpenEvalCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if e, ok := c2.commResult(ck, nil); !ok || e != want {
		t.Fatalf("comm entry after abrupt stop = %+v, %v; want %+v", e, ok, want)
	}
	if cp, ok := c2.criticalPath(fp, nil); !ok || cp != 3 {
		t.Fatalf("critical path after abrupt stop = %d, %v; want 3", cp, ok)
	}
	c1.Close() // only to stop goroutines under -race cleanliness
}

// TestCacheCorruptDiskRecordIsMiss: flipping bits in a persisted record
// demotes it to a miss (and quarantine) at the cache level too.
func TestCacheCorruptDiskRecordIsMiss(t *testing.T) {
	dir := t.TempDir()
	ck := commKey{sk: schedKey{fp: ir.Fingerprint{7}, config: "rcp", w: 1}}
	c1, err := OpenEvalCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.putCommResult(ck, commEntry{cycles: 5})
	c1.Close()

	// Corrupt every record file under the store.
	var corrupted int
	filepath.Walk(filepath.Join(dir, "shards"), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			data, rerr := os.ReadFile(path)
			if rerr == nil && len(data) > 0 {
				data[len(data)-1] ^= 0xff
				os.WriteFile(path, data, 0o644)
				corrupted++
			}
		}
		return nil
	})
	if corrupted == 0 {
		t.Fatal("no record files found to corrupt")
	}

	c2, err := OpenEvalCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.commResult(ck, nil); ok {
		t.Fatal("corrupt record served as a hit")
	}
	if st := c2.Stats(); st.DiskCorrupt != 1 || st.CommMisses != 1 {
		t.Errorf("stats = %+v; want 1 corrupt, 1 comm miss", st)
	}
}

// emptyMovement is the movement profile of an empty k-region schedule.
func emptyMovement(tb testing.TB, k int) *comm.Movement {
	mv, err := comm.NewMovement(&schedule.Schedule{K: k})
	if err != nil {
		tb.Fatal(err)
	}
	return mv
}
