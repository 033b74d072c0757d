package server

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/request"
)

// The build memo's fixed bounds. The byte estimate of an entry is
// calibrated against the measured retained heap of a built program and
// its digests: the gated programs retain 100–170 B per IR op plus
// ~1 KB per module, ~1.9 MB for all eleven, so the cap holds the gated
// set four times over. A stored answer is charged its key's length
// plus memoAnswerBytes for its map slot (the 96 B answer and the key's
// string header) and the map's slack.
const (
	// memoSeenKeys bounds the FIFO of build keys sighted once (32 B each).
	memoSeenKeys = 1024
	// memoCapBytes bounds the estimated bytes of all kept entries,
	// their stored answers included.
	memoCapBytes    = 8 << 20
	memoOpBytes     = 112
	memoModuleBytes = 1024
	memoAnswerBytes = 160
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

// answer is the Metrics of one successful evaluation of an entry's
// program, stamped with the verify.rejections count read before that
// evaluation began. A rejection since then may have replaced a cache
// entry the evaluation was served, so the answer is served only while
// the count is unchanged.
type answer struct {
	m     core.Metrics
	epoch int64
}

// answerSize is the byte estimate of an answer stored under key.
func answerSize(key string) int64 { return int64(len(key)) + memoAnswerBytes }

// errStaleBuild marks a memo entry that a Verify request's fresh build
// contradicts.
var errStaleBuild = errors.New("server: build memo entry differs from a fresh build")

// buildMemo maps a request's build key (request.Config.BuildKey) to its
// finished build, so a source is parsed, lowered, flattened and hashed
// once rather than on every request. A build is kept only on the
// second sighting of its key: a stream of unique sources passes through
// the FIFO of sighted keys and leaves no entry. Kept entries sit in one
// LRU bounded by memoCapBytes of estimated size.
//
// An entry also keeps the answers evaluations of its program gave,
// keyed by the flight key of a plain request (request.Config.KeyOf),
// so a repeated request is answered without reaching the engine. The
// answers leave with their entry.
type buildMemo struct {
	mu      sync.Mutex
	entries map[buildKey]*list.Element // of *memoEntry
	lru     *list.List                 // most recently used first
	bytes   int64

	seen     map[buildKey]struct{}
	seenRing [memoSeenKeys]buildKey
	seenNext int

	hits, misses, evictions, answerHits *obs.Counter
	bytesGauge                          *obs.Gauge
	// rejections is the engine's verify.rejections: a stale entry is
	// one more thing a Verify request audits, and any rejection
	// invalidates every stored answer.
	rejections *obs.Counter
}

type memoEntry struct {
	key     buildKey
	b       builtProgram
	bytes   int64
	answers map[string]answer
}

func newBuildMemo(reg *obs.Registry) *buildMemo {
	return &buildMemo{
		entries:    map[buildKey]*list.Element{},
		lru:        list.New(),
		seen:       map[buildKey]struct{}{},
		hits:       reg.Counter("server.build_memo.hits"),
		misses:     reg.Counter("server.build_memo.misses"),
		evictions:  reg.Counter("server.build_memo.evictions"),
		answerHits: reg.Counter("server.build_memo.answer_hits"),
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

// epoch is the stamp of an evaluation about to begin (see answer).
func (m *buildMemo) epoch() int64 { return m.rejections.Value() }

// answer returns the Metrics stored under key on k's entry, counting a
// hit, unless a verify rejection has happened since their evaluation
// began.
func (m *buildMemo) answer(k buildKey, key string) (core.Metrics, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[k]
	if !ok {
		return core.Metrics{}, false
	}
	a, ok := el.Value.(*memoEntry).answers[key]
	if !ok || a.epoch != m.rejections.Value() {
		return core.Metrics{}, false
	}
	m.answerHits.Inc()
	return a.m, true
}

// keep stores met, the answer of an evaluation of the program whose
// digest is fp begun at epoch, under key on k's entry. With no entry
// for k, or one holding another program, nothing is stored; an answer
// never replaces one from a later epoch. A new answer counts toward the
// cap like the entry itself.
func (m *buildMemo) keep(k buildKey, fp ir.Fingerprint, key string, met core.Metrics, epoch int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[k]
	if !ok {
		return
	}
	e := el.Value.(*memoEntry)
	if e.b.d.Program != fp {
		return
	}
	if old, ok := e.answers[key]; ok {
		if old.epoch <= epoch {
			e.answers[key] = answer{met, epoch}
		}
		return
	}
	n := answerSize(key)
	if e.bytes+n > memoCapBytes {
		return
	}
	if e.answers == nil {
		e.answers = map[string]answer{}
	}
	e.answers[key] = answer{met, epoch}
	e.bytes += n
	m.bytes += n
	// e is the most recently used entry, so eviction stops before it.
	m.lru.MoveToFront(el)
	m.evictOverLocked()
	m.bytesGauge.Set(m.bytes)
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

// putLocked keeps b under k, replacing any entry there (and its
// answers), and evicts least recently used entries until the estimate
// fits the cap. A build larger than the whole cap is not kept.
func (m *buildMemo) putLocked(k buildKey, b builtProgram) {
	if el, ok := m.entries[k]; ok {
		m.removeLocked(el)
	}
	e := &memoEntry{key: k, b: b, bytes: b.size()}
	if e.bytes > memoCapBytes {
		return
	}
	m.bytes += e.bytes
	m.entries[k] = m.lru.PushFront(e)
	m.evictOverLocked()
	m.bytesGauge.Set(m.bytes)
}

// evictOverLocked evicts least recently used entries while the
// estimate exceeds the cap.
func (m *buildMemo) evictOverLocked() {
	for m.bytes > memoCapBytes {
		m.removeLocked(m.lru.Back())
		m.evictions.Inc()
	}
}

func (m *buildMemo) removeLocked(el *list.Element) {
	e := m.lru.Remove(el).(*memoEntry)
	delete(m.entries, e.key)
	m.bytes -= e.bytes
	m.bytesGauge.Set(m.bytes)
}

// program returns req's build and digests, its build key, and whether
// the build came from the build memo; otherwise it is built now and
// offered to the memo. A Verify request always builds from source and
// audits the memo's entry against that build (check); a stale entry
// counts as a verify rejection and fails the request.
func (s *Server) program(req request.Config) (b builtProgram, key buildKey, memoized bool, err error) {
	key = req.BuildKey()
	if !req.Verify {
		if b, ok := s.memo.get(key); ok {
			return b, key, true, nil
		}
	}
	p, err := req.Build(nil)
	if err != nil {
		return builtProgram{}, key, false, err
	}
	b = builtProgram{p: p, d: p.Digests()}
	if !req.Verify {
		s.memo.offer(key, b)
		return b, key, false, nil
	}
	if err := s.memo.check(key, b); err != nil {
		return builtProgram{}, key, false, err
	}
	return b, key, false, nil
}
