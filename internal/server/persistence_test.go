package server

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scaffold-go/multisimd/internal/cas"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/obs"
)

// TestConcurrentLeaderCacheAttribution is the attribution regression
// test: two concurrent, non-identical leaders share one cache, and the
// per-request cache deltas in their access-log entries must sum EXACTLY
// to the shared cache's global delta. The old implementation read
// global counters around each evaluation, so concurrent flights bled
// traffic into each other's logs. Run under -race this also exercises
// the recorder's atomics against the striped cache.
func TestConcurrentLeaderCacheAttribution(t *testing.T) {
	g := newGated("gated-attr")
	var buf syncBuffer
	s, ts := newTestServer(t, Options{AccessLog: obs.NewAccessLog(&buf)})

	// Non-identical programs that still share their first three leaves,
	// so the two flights race on overlapping cache keys.
	bodyA := rawBody(manyLeafSource(3), g.name, 2)
	bodyB := rawBody(manyLeafSource(5), g.name, 2)

	before := s.Cache().Stats()
	var wg sync.WaitGroup
	status := make([]int, 2)
	for i, b := range []struct{ id, body string }{
		{"leader-a", bodyA},
		{"leader-b", bodyB},
	} {
		wg.Add(1)
		go func(i int, id, body string) {
			defer wg.Done()
			resp, _ := postWithID(t, ts.URL+"/v1/compile", id, body)
			status[i] = resp.StatusCode
		}(i, b.id, b.body)
	}
	// Both flights must be in the air — blocked on the gate — before
	// either is released, or the test degenerates to sequential runs.
	deadline := time.Now().Add(15 * time.Second)
	for len(s.flights.snapshot()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second flight never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(g.release)
	wg.Wait()
	for i, code := range status {
		if code != http.StatusOK {
			t.Fatalf("leader %d finished with status %d", i, code)
		}
	}

	ea := waitForEntry(t, &buf, "leader-a")
	eb := waitForEntry(t, &buf, "leader-b")
	if ea.Cache == nil || eb.Cache == nil {
		t.Fatalf("cache blocks missing: a=%+v b=%+v", ea.Cache, eb.Cache)
	}
	global := s.Cache().Stats().Sub(before)
	sum := obs.AccessCache{
		CommHits:    ea.Cache.CommHits + eb.Cache.CommHits,
		CommMisses:  ea.Cache.CommMisses + eb.Cache.CommMisses,
		SchedHits:   ea.Cache.SchedHits + eb.Cache.SchedHits,
		SchedMisses: ea.Cache.SchedMisses + eb.Cache.SchedMisses,
		DiskHits:    ea.Cache.DiskHits + eb.Cache.DiskHits,
		DiskMisses:  ea.Cache.DiskMisses + eb.Cache.DiskMisses,
	}
	want := obs.AccessCache{
		CommHits:    global.CommHits,
		CommMisses:  global.CommMisses,
		SchedHits:   global.SchedHits,
		SchedMisses: global.SchedMisses,
		DiskHits:    global.DiskHits,
		DiskMisses:  global.DiskMisses,
	}
	if !reflect.DeepEqual(sum, want) {
		t.Errorf("per-request deltas do not sum to the global delta:\n a=%+v\n b=%+v\n sum=%+v\n global=%+v",
			*ea.Cache, *eb.Cache, sum, want)
	}
	if sum.SchedMisses == 0 {
		t.Error("no schedule misses recorded across two cold leaders")
	}
}

// TestDrainTrackerRate pins the rate estimator on synthetic timestamps.
func TestDrainTrackerRate(t *testing.T) {
	now := time.Unix(1700000000, 0)
	var d drainTracker
	if got := d.rate(now); got != 0 {
		t.Errorf("empty tracker rate = %v, want 0", got)
	}
	d.note(now.Add(-time.Second))
	if got := d.rate(now); got != 0 {
		t.Errorf("single-sample rate = %v, want 0", got)
	}
	// 10 completions over the last 10 seconds ≈ 1/s.
	d = drainTracker{}
	for i := 10; i >= 1; i-- {
		d.note(now.Add(-time.Duration(i) * time.Second))
	}
	if got := d.rate(now); got < 0.9 || got > 1.1 {
		t.Errorf("rate = %v, want ~1/s", got)
	}
	// Samples beyond the window are ignored.
	d = drainTracker{}
	d.note(now.Add(-drainWindow - time.Hour))
	d.note(now.Add(-drainWindow - time.Minute))
	if got := d.rate(now); got != 0 {
		t.Errorf("stale-sample rate = %v, want 0", got)
	}
}

// TestRetryAfterBounds: no signal floors at 1s; a slow drain against a
// deep queue is capped at 30s; a healthy drain prices proportionally.
func TestRetryAfterBounds(t *testing.T) {
	s := New(Options{MaxInflight: 1})
	defer s.Close()
	if got := s.retryAfterSecs(); got != 1 {
		t.Errorf("cold server Retry-After = %d, want 1", got)
	}
	// ~2 completions/second observed, 9 queued → ceil(10/2) = 5s.
	now := time.Now()
	for i := 20; i >= 1; i-- {
		s.drains.note(now.Add(-time.Duration(i) * 500 * time.Millisecond))
	}
	s.queued.Store(9)
	if got := s.retryAfterSecs(); got < 4 || got > 6 {
		t.Errorf("Retry-After = %d, want ~5", got)
	}
	// Glacial drain: 2 completions a minute apart, queue of 100 → cap.
	s2 := New(Options{MaxInflight: 1})
	defer s2.Close()
	s2.drains.note(now.Add(-90 * time.Second))
	s2.drains.note(now.Add(-30 * time.Second))
	s2.queued.Store(100)
	if got := s2.retryAfterSecs(); got != retryAfterMax {
		t.Errorf("Retry-After = %d, want cap %d", got, retryAfterMax)
	}
}

// TestServerRestartServesFromDisk is the warm-restart story end to end
// at the package level (CI repeats it against the real daemon): a
// compile served by one server process survives into a fresh server
// over the same cache directory, which answers the repeat request from
// the disk layer with identical metrics and zero recomputation.
func TestServerRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	body := compileBody(tinySource, "lpfs", 2)

	cache1, err := core.OpenEvalCache(core.CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Options{Cache: cache1})
	resp, data := post(t, ts1.URL+"/v1/compile", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming compile: %d: %s", resp.StatusCode, data)
	}
	var first CompileResponse
	decodeInto(t, data, &first)
	if st := s1.Cache().Stats(); st.DiskWrites == 0 || st.DiskEntries == 0 {
		t.Fatalf("no write-through persistence happened: %+v", st)
	}
	ts1.Close()
	cache1.Close()

	cache2, err := core.OpenEvalCache(core.CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Options{Cache: cache2})
	resp, data = post(t, ts2.URL+"/v1/compile", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat compile: %d: %s", resp.StatusCode, data)
	}
	var second CompileResponse
	decodeInto(t, data, &second)
	if !reflect.DeepEqual(first.Metrics, second.Metrics) {
		t.Errorf("metrics changed across restart:\n first=%+v\n second=%+v", first.Metrics, second.Metrics)
	}

	st := s2.Cache().Stats()
	if st.DiskHits == 0 {
		t.Errorf("repeat request not served from the disk layer: %+v", st)
	}
	if st.CommMisses != 0 || st.SchedMisses != 0 {
		t.Errorf("restart recomputed work a disk hit should have saved: %+v", st)
	}

	// The debug endpoint surfaces the same disk-layer stats.
	resp, data = get(t, ts2.URL+"/v1/debug/state")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug state: %d", resp.StatusCode)
	}
	var ds DebugStateResponse
	decodeInto(t, data, &ds)
	if ds.Cache.DiskHits == 0 || ds.Cache.DiskEntries == 0 {
		t.Errorf("debug state hides the disk layer: %+v", ds.Cache)
	}
}

// TestVerifyAuditsDiskRecords: a comm record rewritten on disk with a
// valid frame (so no checksum can catch it) is served as is by
// /v1/compile after a restart, and /v1/verify reports it, naming the
// module, the width and the field that differs. The rejected entry is
// replaced by its re-derivation: the same server, and a later one over
// the same directory, serve the honest metrics again.
func TestVerifyAuditsDiskRecords(t *testing.T) {
	dir := t.TempDir()
	body := `{"bench": "Grovers", "scheduler": "lpfs", "k": 2}`
	compile := func(url, what string) MetricsBody {
		t.Helper()
		resp, data := post(t, url+"/v1/compile", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s compile: %d: %s", what, resp.StatusCode, data)
		}
		var cr CompileResponse
		decodeInto(t, data, &cr)
		return cr.Metrics
	}

	cache1, err := core.OpenEvalCache(core.CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Options{Cache: cache1})
	honest := compile(ts1.URL, "warming")
	ts1.Close()
	cache1.Close()

	// Rewrite the first comm record (a 32-byte payload: zero-comm
	// length, cycles, global moves, local moves) with cycles + 1.
	var keys []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(d.Name(), ".rec") {
			keys = append(keys, strings.TrimSuffix(d.Name(), ".rec"))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	store, err := cas.Open(cas.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cycles := int64(-1)
	for _, name := range keys {
		var k cas.Key
		if raw, err := hex.DecodeString(name); err != nil || copy(k[:], raw) != len(k) {
			t.Fatalf("record name %q", name)
		}
		payload, ok := store.Get(k)
		if !ok || len(payload) != 32 {
			continue
		}
		cycles = int64(binary.LittleEndian.Uint64(payload[8:]))
		binary.LittleEndian.PutUint64(payload[8:], uint64(cycles+1))
		store.Delete(k)
		store.Put(k, payload)
		break
	}
	store.Close()
	if cycles < 0 {
		t.Fatalf("no comm record among %d records", len(keys))
	}

	cache2, err := core.OpenEvalCache(core.CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Options{Cache: cache2})
	if got := compile(ts2.URL, "tampered"); got == honest {
		t.Fatalf("the rewritten record left the metrics as they were: comm_cycles %d", got.CommCycles)
	}
	resp, data := post(t, ts2.URL+"/v1/verify", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("verify over the rewritten record: %d: %s", resp.StatusCode, data)
	}
	var er ErrorResponse
	decodeInto(t, data, &er)
	want := regexp.MustCompile(`module \S+: width \d+: ` + regexp.QuoteMeta(fmt.Sprintf("served cycles %d, re-derived %d", cycles+1, cycles)))
	if er.Error.Code != CodeEvalFailed || !want.MatchString(er.Error.Message) {
		t.Errorf("verify error %+v, want %s matching %s", er.Error, CodeEvalFailed, want)
	}
	if got := compile(ts2.URL, "audited"); got != honest {
		t.Errorf("after the rejection /v1/compile serves comm_cycles %d, want the re-derived %d", got.CommCycles, honest.CommCycles)
	}
	ts2.Close()
	cache2.Close()

	cache3, err := core.OpenEvalCache(core.CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cache3.Close()
	_, ts3 := newTestServer(t, Options{Cache: cache3})
	if got := compile(ts3.URL, "restarted"); got != honest {
		t.Errorf("after a restart /v1/compile serves comm_cycles %d, want the re-derived %d", got.CommCycles, honest.CommCycles)
	}
}
