// Package cas is a persistent, sharded, content-addressed record store:
// the disk layer behind core.EvalCache. Records are keyed by a 32-byte
// content hash and stored one file per record under a two-hex-digit
// shard directory; every record is a "QCAS" frame (see file.go: magic,
// version, length, checksum) following the report schema-versioning
// discipline, so a torn or corrupted file — a crash mid-write, a bad
// disk, a truncation — is detected, quarantined and reported as a miss,
// never a wrong answer and never a crash. The frame codec, atomic
// writer, quarantine and temp sweep are exported for the other on-disk
// stores (internal/obs/telem).
//
// Concurrency is lock-striped per shard: readers and writers of
// different shards never contend, and within a shard the per-record
// write protocol (temp file + atomic rename) keeps concurrent readers
// safe. Multiple processes may share one store directory — writes are
// atomic renames and reads re-stat on index misses, so a record written
// by a sibling process becomes visible without coordination.
//
// A store can be opened ReadOnly to serve as an immutable seed layer
// (the committed bench/baselines corpus qschedd preloads at warm
// start): Gets work, Puts are dropped, corrupt records are skipped in
// place instead of quarantined.
package cas

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Key is a 32-byte content address (a SHA-256 of whatever identifies
// the record; see core's cache key derivation).
type Key [32]byte

// String renders the key as the 64-hex-digit record file stem.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// recordMagic names a cas record frame.
var recordMagic = [4]byte{'Q', 'C', 'A', 'S'}

// shards is the lock-stripe and directory fan-out: a record lives in
// shard key[0] & (shards-1). It is part of the on-disk layout, so it is
// fixed rather than configurable.
const shards = 64

// Options configures a Store. Only Dir is required.
type Options struct {
	// Dir is the store root; created if missing (unless ReadOnly).
	Dir string
	// ReadOnly opens the store as an immutable seed layer: Puts and
	// compaction are disabled and corrupt records are skipped without
	// quarantining.
	ReadOnly bool
	// MaxBytes bounds total record bytes on disk; Compact (and the
	// background compactor) evicts least-recently-used records past it.
	// 0 means unbounded.
	MaxBytes int64
	// CompactEvery runs Compact(MaxBytes) periodically in the
	// background when both it and MaxBytes are positive.
	CompactEvery time.Duration
}

// Stats is a point-in-time traffic and occupancy snapshot.
type Stats struct {
	Hits        int64 // records served (validated)
	Misses      int64 // lookups with no record
	Writes      int64 // records persisted
	WriteErrors int64 // failed persists (store stays consistent; entry absent)
	Corrupt     int64 // records failing validation (quarantined unless read-only)
	Compacted   int64 // records evicted by compaction
	Entries     int   // records currently indexed
	Bytes       int64 // record bytes currently indexed (payload + header)
}

// Store is the persistent record store. Safe for concurrent use.
type Store struct {
	opts    Options
	stripes [shards]*stripe

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// stripe is one shard: a directory, its record index and the lock
// serializing access to both.
type stripe struct {
	mu    sync.Mutex
	dir   string
	index map[Key]indexEntry
	bytes int64

	hits, misses, writes, writeErrs, corrupt, compacted int64
}

// indexEntry caches a record file's size and last-touch time so Stats
// and Compact never re-walk the directory.
type indexEntry struct {
	size  int64
	atime time.Time
}

// Open opens (and, unless ReadOnly, creates) a store rooted at
// opts.Dir, rebuilding the index from the shard directories and
// clearing any temp files a crashed writer left behind.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("cas: Dir is required")
	}
	s := &Store{
		opts:   opts,
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i := range s.stripes {
		st := &stripe{
			dir:   filepath.Join(opts.Dir, "shards", fmt.Sprintf("%02x", i)),
			index: map[Key]indexEntry{},
		}
		if !opts.ReadOnly {
			if err := os.MkdirAll(st.dir, 0o755); err != nil {
				return nil, fmt.Errorf("cas: %w", err)
			}
		}
		if err := st.load(); err != nil {
			return nil, err
		}
		s.stripes[i] = st
	}
	if !opts.ReadOnly {
		if err := os.MkdirAll(s.quarantineDir(), 0o755); err != nil {
			return nil, fmt.Errorf("cas: %w", err)
		}
	}
	if !opts.ReadOnly && opts.MaxBytes > 0 && opts.CompactEvery > 0 {
		go s.compactLoop()
	} else {
		close(s.done)
	}
	return s, nil
}

func (s *Store) quarantineDir() string { return filepath.Join(s.opts.Dir, "quarantine") }

// load rebuilds one stripe's index from its directory: record files are
// indexed by their hex-key names, leftover temp files are removed, and
// anything unrecognized is ignored (validation stays lazy, at Get).
func (st *stripe) load() error {
	ents, err := SweepTemp(st.dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	for _, e := range ents {
		k, ok := keyFromName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		st.index[k] = indexEntry{size: info.Size(), atime: info.ModTime()}
		st.bytes += info.Size()
	}
	return nil
}

func keyFromName(name string) (Key, bool) {
	if !strings.HasSuffix(name, ".rec") {
		return Key{}, false
	}
	raw, err := hex.DecodeString(strings.TrimSuffix(name, ".rec"))
	if err != nil || len(raw) != len(Key{}) {
		return Key{}, false
	}
	var k Key
	copy(k[:], raw)
	return k, true
}

func (s *Store) stripe(k Key) *stripe { return s.stripes[k[0]&(shards-1)] }

func (s *Store) path(st *stripe, k Key) string {
	return filepath.Join(st.dir, k.String()+".rec")
}

// Get returns the payload stored under k. A missing record is a plain
// miss; a record failing validation (bad magic, unknown version, short
// file, checksum mismatch) counts as corrupt, is quarantined (moved
// aside for post-mortem, unless the store is read-only), and is also a
// miss — corruption is never an error to the caller.
func (s *Store) Get(k Key) ([]byte, bool) {
	st := s.stripe(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	path := s.path(st, k)
	ent, ok := st.index[k]
	if !ok {
		// A sibling process may have written the record after our index
		// was built; one stat keeps cross-process sharing working.
		info, err := os.Stat(path)
		if err != nil {
			st.misses++
			return nil, false
		}
		ent = indexEntry{size: info.Size(), atime: info.ModTime()}
		st.index[k] = ent
		st.bytes += ent.size
	}
	data, err := os.ReadFile(path)
	if err != nil {
		st.dropLocked(k)
		st.misses++
		return nil, false
	}
	payload, err := DecodeFrame(recordMagic, data)
	if err != nil {
		st.corrupt++
		s.quarantineLocked(st, k, path)
		st.misses++
		return nil, false
	}
	// Touch for LRU-ish compaction ordering; best-effort.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	ent.atime = now
	st.index[k] = ent
	st.hits++
	return payload, true
}

// Put persists payload under k. Writes are atomic (temp file + rename)
// and idempotent — a key already present is left alone, since equal
// keys address equal content. On a read-only store Put is a no-op.
// Errors are absorbed into WriteErrors: the store is a cache, and a
// failed persist only costs a future recompute.
func (s *Store) Put(k Key, payload []byte) {
	if s.opts.ReadOnly {
		return
	}
	st := s.stripe(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.index[k]; ok {
		return
	}
	data := EncodeFrame(recordMagic, payload)
	if err := WriteFileAtomic(s.path(st, k), data); err != nil {
		st.writeErrs++
		return
	}
	st.index[k] = indexEntry{size: int64(len(data)), atime: time.Now()}
	st.bytes += int64(len(data))
	st.writes++
}

// Delete removes the record under k, if present (e.g. a stale schedule
// record whose module no longer rebinds).
func (s *Store) Delete(k Key) {
	if s.opts.ReadOnly {
		return
	}
	st := s.stripe(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	os.Remove(s.path(st, k))
	st.dropLocked(k)
}

// dropLocked removes k from the stripe index (file already gone or
// being discarded). Caller holds st.mu.
func (st *stripe) dropLocked(k Key) {
	if ent, ok := st.index[k]; ok {
		st.bytes -= ent.size
		delete(st.index, k)
	}
}

// quarantineLocked moves a corrupt record aside (read-only stores skip
// the move) and drops it from the index. Caller holds st.mu.
func (s *Store) quarantineLocked(st *stripe, k Key, path string) {
	if !s.opts.ReadOnly {
		Quarantine(path, filepath.Join(s.quarantineDir(), k.String()+".bad"))
	}
	st.dropLocked(k)
}

// Stats sums per-stripe counters; each stripe is read under its lock,
// so per-stripe counts are mutually consistent.
func (s *Store) Stats() Stats {
	var out Stats
	for _, st := range s.stripes {
		st.mu.Lock()
		out.Hits += st.hits
		out.Misses += st.misses
		out.Writes += st.writes
		out.WriteErrors += st.writeErrs
		out.Corrupt += st.corrupt
		out.Compacted += st.compacted
		out.Entries += len(st.index)
		out.Bytes += st.bytes
		st.mu.Unlock()
	}
	return out
}

// Len returns the number of indexed records.
func (s *Store) Len() int { return s.Stats().Entries }

// Compact evicts least-recently-touched records until the store holds
// at most target bytes, returning how many records it removed.
// Directory growth stays bounded: the background compactor calls this
// with Options.MaxBytes.
func (s *Store) Compact(target int64) int {
	if s.opts.ReadOnly || target < 0 {
		return 0
	}
	type victim struct {
		k     Key
		st    *stripe
		size  int64
		atime time.Time
	}
	var total int64
	var all []victim
	for _, st := range s.stripes {
		st.mu.Lock()
		for k, ent := range st.index {
			all = append(all, victim{k: k, st: st, size: ent.size, atime: ent.atime})
		}
		total += st.bytes
		st.mu.Unlock()
	}
	if total <= target {
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i].atime.Before(all[j].atime) })
	removed := 0
	for _, v := range all {
		if total <= target {
			break
		}
		v.st.mu.Lock()
		if _, ok := v.st.index[v.k]; ok {
			os.Remove(s.path(v.st, v.k))
			v.st.dropLocked(v.k)
			v.st.compacted++
			removed++
			total -= v.size
		}
		v.st.mu.Unlock()
	}
	return removed
}

func (s *Store) compactLoop() {
	defer close(s.done)
	t := time.NewTicker(s.opts.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Compact(s.opts.MaxBytes)
		case <-s.stopCh:
			return
		}
	}
}

// Close stops the background compactor. The store itself holds no open
// files between calls, so Close never fails.
func (s *Store) Close() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	<-s.done
}
