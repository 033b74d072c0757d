package telem

import (
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/scaffold-go/multisimd/internal/obs"
)

// ms builds the fixed test clock: samples land at epoch + n*step so
// step-aligned assertions are exact.
func ms(n int64) time.Time { return time.UnixMilli(n) }

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestAppendSealQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, Retention: -1, SealSamples: 4})
	for i := int64(0); i < 10; i++ {
		s.Append(ms(i*2000), map[string]float64{"req.total": float64(i), "heap": float64(100 + i)})
	}
	// 10 appends at SealSamples=4: two sealed segments, two buffered.
	st := s.Stats()
	if st.Sealed != 2 || st.BufferedSamples != 2 {
		t.Fatalf("stats = %+v, want 2 sealed / 2 buffered", st)
	}
	pts := s.Query("req.total", ms(0), ms(20000), 0)
	if len(pts) != 10 {
		t.Fatalf("Query returned %d points, want 10 (sealed + buffered)", len(pts))
	}
	for i, p := range pts {
		if p.TSMS != int64(i)*2000 || p.V != float64(i) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
	// Sub-range only.
	pts = s.Query("req.total", ms(4000), ms(8000), 0)
	if len(pts) != 3 || pts[0].V != 2 || pts[2].V != 4 {
		t.Fatalf("sub-range = %+v", pts)
	}
	// Unknown series: no points.
	if got := s.Query("nope", ms(0), ms(20000), 0); len(got) != 0 {
		t.Fatalf("unknown series returned %+v", got)
	}
}

func TestQueryStepAlignment(t *testing.T) {
	s := openTest(t, Options{Dir: t.TempDir(), Retention: -1, SealSamples: 100})
	// Samples every 2s; query at a 10s step must keep the last sample of
	// each epoch-aligned 10s bucket.
	for i := int64(0); i < 15; i++ {
		s.Append(ms(i*2000), map[string]float64{"c": float64(i)})
	}
	pts := s.Query("c", ms(0), ms(30000), 10*time.Second)
	want := []Point{{TSMS: 0, V: 4}, {TSMS: 10000, V: 9}, {TSMS: 20000, V: 14}}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("aligned points = %+v, want %+v", pts, want)
	}
}

func TestSeriesSorted(t *testing.T) {
	s := openTest(t, Options{Dir: t.TempDir(), Retention: -1})
	s.Append(ms(0), map[string]float64{"zz": 1, "aa": 2, "mm": 3})
	if got, want := s.Series(), []string{"aa", "mm", "zz"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Series = %v, want %v", got, want)
	}
}

func TestSeriesSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, Retention: -1})
	s.Append(ms(0), map[string]float64{"a": 1, "b": 2})
	s.Close()
	s2 := openTest(t, Options{Dir: dir, Retention: -1})
	if got, want := s2.Series(), []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Series after reopen = %v, want %v", got, want)
	}
}

func TestRetentionDropsExpiredSegments(t *testing.T) {
	dir := t.TempDir()
	now := ms(100 * 60 * 1000) // t = 100 minutes
	clock := func() time.Time { return now }
	s := openTest(t, Options{Dir: dir, Retention: 10 * time.Minute, SealSamples: 1, Now: clock})
	// One old segment (sealed immediately at SealSamples=1) and one fresh.
	s.Append(ms(1*60*1000), map[string]float64{"c": 1})
	s.Append(ms(99*60*1000), map[string]float64{"c": 2})
	st := s.Stats()
	if st.DroppedAge != 1 || st.Segments != 1 {
		t.Fatalf("stats = %+v, want 1 dropped by age, 1 kept", st)
	}
	if pts := s.Query("c", ms(0), now, 0); len(pts) != 1 || pts[0].V != 2 {
		t.Fatalf("post-retention query = %+v", pts)
	}
	// Reopen with the same clock: the kept segment stays.
	s.Close()
	s2 := openTest(t, Options{Dir: dir, Retention: 10 * time.Minute, Now: clock})
	if pts := s2.Query("c", ms(0), now, 0); len(pts) != 1 || pts[0].V != 2 {
		t.Fatalf("reopen query = %+v", pts)
	}
}

func TestBudgetDownsamplesThenDrops(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, Retention: -1, SealSamples: 8, Step: 2 * time.Second})
	for i := int64(0); i < 64; i++ {
		s.Append(ms(i*2000), map[string]float64{"c": float64(i), "pad": float64(i) * 1.5})
	}
	full := s.Stats()
	if full.Sealed != 8 || full.Bytes == 0 {
		t.Fatalf("setup stats = %+v", full)
	}

	// Reopen under a budget roughly half the raw footprint: maintenance
	// must downsample the oldest segments first and only then drop.
	s.Close()
	s2 := openTest(t, Options{Dir: dir, Retention: -1, MaxBytes: full.Bytes / 2, Step: 2 * time.Second})
	st := s2.Stats()
	if st.Bytes > full.Bytes/2 {
		t.Fatalf("budget not enforced: %d > %d", st.Bytes, full.Bytes/2)
	}
	if st.Downsampled == 0 {
		t.Fatalf("stats = %+v, want downsampling before dropping", st)
	}
	// Downsampled history still answers queries (coarser, last-wins),
	// and the series endpoint — the last sample in its window — is
	// always preserved, so rates survive the squeeze.
	pts := s2.Query("c", ms(0), ms(63*2000), 0)
	if len(pts) == 0 || len(pts) >= 64 {
		t.Fatalf("squeezed history has %d points, want 0 < n < 64", len(pts))
	}
	if last := pts[len(pts)-1]; last.V != 63 {
		t.Fatalf("endpoint after squeeze = %+v, want v=63", last)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TSMS <= pts[i-1].TSMS {
			t.Fatalf("points out of order at %d: %+v", i, pts)
		}
	}
}

func TestDownsampleKeepsWindowEndpoint(t *testing.T) {
	s := openTest(t, Options{Dir: t.TempDir(), Retention: -1, Step: 2 * time.Second})
	for i := int64(0); i < 8; i++ {
		s.Append(ms(i*2000), map[string]float64{"c": float64(i * 10)})
	}
	s.Seal()
	s.mu.Lock()
	m := &s.segs[0]
	s.downsampleLocked(m) // level 1: 4s epoch-aligned windows
	s.mu.Unlock()
	pts := s.Query("c", ms(0), ms(16000), 0)
	// Windows [0,4s) [4,8s) ... keep their last raw sample: t=2s,6s,10s,14s.
	want := []Point{{2000, 10}, {6000, 30}, {10000, 50}, {14000, 70}}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("downsampled points = %+v, want %+v", pts, want)
	}
}

// TestMemoryStore: an in-memory store keeps only its newest samples,
// answers queries with the same step folding as a persistent store
// holding those samples, and never touches disk.
func TestMemoryStore(t *testing.T) {
	t.Chdir(t.TempDir()) // any stray relative write would land here
	mem := NewMemory(4)
	disk := openTest(t, Options{Retention: -1, SealSamples: 2})
	for i := int64(0); i < 10; i++ {
		v := map[string]float64{"req.total": float64(i)}
		mem.Append(ms(i*1000), v)
		if i >= 6 {
			disk.Append(ms(i*1000), v)
		}
	}
	st := mem.Stats()
	if st.Segments != 0 || st.Bytes != 0 || st.BufferedSamples != 4 || st.Series != 1 {
		t.Fatalf("stats = %+v, want 0 segments and the 4 newest samples buffered", st)
	}
	raw := mem.Query("req.total", ms(0), ms(20000), 0)
	want := []Point{{6000, 6}, {7000, 7}, {8000, 8}, {9000, 9}}
	if !reflect.DeepEqual(raw, want) {
		t.Fatalf("raw = %+v, want the newest 4 %+v", raw, want)
	}
	for _, step := range []time.Duration{0, 2 * time.Second, 5 * time.Second} {
		got := mem.Query("req.total", ms(0), ms(20000), step)
		if exp := disk.Query("req.total", ms(0), ms(20000), step); !reflect.DeepEqual(got, exp) {
			t.Fatalf("step %v: memory %+v, persistent %+v", step, got, exp)
		}
	}
	mem.Seal()
	mem.Close()
	if mem.Stats().Segments != 0 || mem.Dir() != "" {
		t.Fatalf("memory store sealed to disk: %+v dir %q", mem.Stats(), mem.Dir())
	}
	if ents, err := os.ReadDir("."); err != nil || len(ents) != 0 {
		t.Fatalf("memory store created files: %v (err %v)", ents, err)
	}
}

func TestNilStoreZeroAllocations(t *testing.T) {
	var s *Store
	values := map[string]float64{"c": 1}
	now := time.Unix(0, 0)
	if n := testing.AllocsPerRun(100, func() {
		s.Append(now, values)
		_ = s.Query("c", now, now, 0)
		_ = s.Series()
		s.Seal()
		s.Close()
	}); n != 0 {
		t.Fatalf("nil store allocated %.1f per run, want 0", n)
	}
}

func TestFlattenSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("req.total").Add(7)
	reg.Gauge("inflight").Set(3)
	h := reg.Histogram("lat_ms")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	m := Flatten(reg.Snapshot())
	if m["req.total"] != 7 || m["inflight"] != 3 {
		t.Fatalf("flattened scalars wrong: %v", m)
	}
	if m["lat_ms.count"] != 100 {
		t.Fatalf("lat_ms.count = %v", m["lat_ms.count"])
	}
	for _, k := range []string{"lat_ms.sum", "lat_ms.p50", "lat_ms.p95", "lat_ms.p99"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("missing %s in %v", k, m)
		}
	}
	if m["lat_ms.p50"] > m["lat_ms.p99"] {
		t.Fatalf("quantiles inverted: p50=%v p99=%v", m["lat_ms.p50"], m["lat_ms.p99"])
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open with empty Dir succeeded")
	}
}
