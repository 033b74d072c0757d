package server

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/request"
)

// The build memo's fixed bounds. The byte estimate of an entry is
// calibrated against the measured retained heap of a built program and
// its digests: the gated programs retain 100–170 B per IR op plus
// ~1 KB per module, ~1.9 MB for all eleven, so the cap holds the gated
// set four times over.
const (
	// memoSeenKeys bounds the FIFO of build keys sighted once (32 B each).
	memoSeenKeys = 1024
	// memoCapBytes bounds the estimated bytes of all kept entries.
	memoCapBytes    = 8 << 20
	memoOpBytes     = 112
	memoModuleBytes = 1024
)

type buildKey = [sha256.Size]byte

// builtProgram is a finished core.Build and its digests. Once built it
// is frozen: every server path reads it (Materialize copies, ancilla
// reuse is off for requests, and ir.Module has no lazily written
// state), so one entry serves any number of concurrent requests.
type builtProgram struct {
	p *ir.Program
	d ir.Digests
}

// size is the entry's byte estimate.
func (b builtProgram) size() int64 {
	n := int64(len(b.p.Modules)) * memoModuleBytes
	for _, m := range b.p.Modules {
		n += int64(len(m.Ops)) * memoOpBytes
	}
	return n
}

// errStaleBuild marks a memo entry that a Verify request's fresh build
// contradicts.
var errStaleBuild = errors.New("server: build memo entry differs from a fresh build")

// buildMemo maps a request's build key (request.Config.BuildKey) to its
// finished build, so a source is parsed, lowered, flattened and hashed
// once rather than on every request. A build is kept only on the
// second sighting of its key: a stream of unique sources passes through
// the FIFO of sighted keys and leaves no entry. Kept entries sit in one
// LRU bounded by memoCapBytes of estimated size.
type buildMemo struct {
	mu      sync.Mutex
	entries map[buildKey]*list.Element // of *memoEntry
	lru     *list.List                 // most recently used first
	bytes   int64

	seen     map[buildKey]struct{}
	seenRing [memoSeenKeys]buildKey
	seenNext int

	hits, misses, evictions *obs.Counter
	bytesGauge              *obs.Gauge
	// rejections is the engine's verify.rejections: a stale entry is
	// one more thing a Verify request audits.
	rejections *obs.Counter
}

type memoEntry struct {
	key   buildKey
	b     builtProgram
	bytes int64
}

func newBuildMemo(reg *obs.Registry) *buildMemo {
	return &buildMemo{
		entries:    map[buildKey]*list.Element{},
		lru:        list.New(),
		seen:       map[buildKey]struct{}{},
		hits:       reg.Counter("server.build_memo.hits"),
		misses:     reg.Counter("server.build_memo.misses"),
		evictions:  reg.Counter("server.build_memo.evictions"),
		bytesGauge: reg.Gauge("server.build_memo.bytes"),
		rejections: reg.Counter("verify.rejections"),
	}
}

// get returns the build kept under k, counting a hit or a miss.
func (m *buildMemo) get(k buildKey) (builtProgram, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[k]
	if !ok {
		m.misses.Inc()
		return builtProgram{}, false
	}
	m.hits.Inc()
	m.lru.MoveToFront(el)
	return el.Value.(*memoEntry).b, true
}

// offer notes a sighting of k and keeps b if k was sighted before.
func (m *buildMemo) offer(k buildKey, b builtProgram) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.offerLocked(k, b)
}

func (m *buildMemo) offerLocked(k buildKey, b builtProgram) {
	if _, ok := m.seen[k]; ok {
		m.putLocked(k, b)
		return
	}
	// The slot's old key, once the ring has wrapped, ages out.
	delete(m.seen, m.seenRing[m.seenNext])
	m.seen[k] = struct{}{}
	m.seenRing[m.seenNext] = k
	m.seenNext = (m.seenNext + 1) % memoSeenKeys
}

// check audits the entry under k against b, a fresh build of the same
// key. An entry whose program or module digests differ counts a
// verify rejection, is replaced by b and is reported as an
// errStaleBuild; with no entry, b counts as a sighting like any other
// build.
func (m *buildMemo) check(k buildKey, b builtProgram) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[k]
	if !ok {
		m.offerLocked(k, b)
		return nil
	}
	if err := sameDigests(el.Value.(*memoEntry).b.d, b.d); err != nil {
		m.rejections.Inc()
		m.putLocked(k, b)
		return err
	}
	return nil
}

// sameDigests compares a served build's digests with a fresh build's.
func sameDigests(served, fresh ir.Digests) error {
	if served.Program != fresh.Program {
		return fmt.Errorf("%w: program digest served %s, rebuilt %s", errStaleBuild, served.Program, fresh.Program)
	}
	names := make([]string, 0, len(fresh.Modules))
	for name := range fresh.Modules {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got := served.Modules[name]; got != fresh.Modules[name] {
			return fmt.Errorf("%w: module %s digest served %s, rebuilt %s", errStaleBuild, name, got, fresh.Modules[name])
		}
	}
	if len(served.Modules) != len(fresh.Modules) {
		return fmt.Errorf("%w: served %d module digests, rebuilt %d", errStaleBuild, len(served.Modules), len(fresh.Modules))
	}
	return nil
}

// putLocked keeps b under k, replacing any entry there, and evicts
// least recently used entries until the estimate fits the cap. A build
// larger than the whole cap is not kept.
func (m *buildMemo) putLocked(k buildKey, b builtProgram) {
	if el, ok := m.entries[k]; ok {
		m.removeLocked(el)
	}
	e := &memoEntry{key: k, b: b, bytes: b.size()}
	if e.bytes > memoCapBytes {
		return
	}
	for m.bytes+e.bytes > memoCapBytes {
		m.removeLocked(m.lru.Back())
		m.evictions.Inc()
	}
	m.entries[k] = m.lru.PushFront(e)
	m.bytes += e.bytes
	m.bytesGauge.Set(m.bytes)
}

func (m *buildMemo) removeLocked(el *list.Element) {
	e := m.lru.Remove(el).(*memoEntry)
	delete(m.entries, e.key)
	m.bytes -= e.bytes
	m.bytesGauge.Set(m.bytes)
}

// program returns req's build and digests: from the build memo, or
// built now and offered to it. A Verify request always builds from
// source and audits the memo's entry against that build (check); a
// stale entry counts as a verify rejection and fails the request.
func (s *Server) program(req request.Config) (builtProgram, error) {
	key := req.BuildKey()
	if !req.Verify {
		if b, ok := s.memo.get(key); ok {
			return b, nil
		}
	}
	p, err := req.Build(nil)
	if err != nil {
		return builtProgram{}, err
	}
	b := builtProgram{p: p, d: p.Digests()}
	if !req.Verify {
		s.memo.offer(key, b)
		return b, nil
	}
	if err := s.memo.check(key, b); err != nil {
		return builtProgram{}, err
	}
	return b, nil
}
