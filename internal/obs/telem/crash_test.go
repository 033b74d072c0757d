package telem

// Crash-safety: the store's on-disk contract mirrors internal/cas —
// every way a segment can be damaged (truncation at any boundary, bad
// magic, unknown version, flipped payload bit, leftover temp file) must
// read back as a quarantined miss, never a wrong answer and never an
// error, and a simulated kill -9 (reopen without Close) must serve the
// sealed history bit-identically.

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/scaffold-go/multisimd/internal/cas"
)

// fillStore seals n samples of series "c" (v = i at t = i*2s) into dir
// and returns the sealed segment paths.
func fillStore(t *testing.T, dir string, n int64) []string {
	t.Helper()
	s := openTest(t, Options{Dir: dir, Retention: -1, SealSamples: 4})
	for i := int64(0); i < n; i++ {
		s.Append(ms(i*2000), map[string]float64{"c": float64(i)})
	}
	s.Close()
	return segmentPaths(t, dir)
}

func segmentPaths(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "segments", "*.tseg"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func quarantined(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestReopenServesIdenticalResults(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, Retention: -1, SealSamples: 4})
	for i := int64(0); i < 16; i++ {
		s.Append(ms(i*2000), map[string]float64{"c": float64(i)})
	}
	s.Seal()
	want := s.Query("c", ms(0), ms(32000), 0)
	wantStep := s.Query("c", ms(0), ms(32000), 8*time.Second)
	// Kill -9 simulation: no Close, just open the same dir again.
	s2 := openTest(t, Options{Dir: dir, Retention: -1})
	if got := s2.Query("c", ms(0), ms(32000), 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen raw query = %+v, want %+v", got, want)
	}
	if got := s2.Query("c", ms(0), ms(32000), 8*time.Second); !reflect.DeepEqual(got, wantStep) {
		t.Fatalf("reopen stepped query = %+v, want %+v", got, wantStep)
	}
}

func TestKillBeforeSealLosesOnlyBuffer(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, Retention: -1, SealSamples: 4})
	for i := int64(0); i < 6; i++ { // 4 sealed + 2 buffered
		s.Append(ms(i*2000), map[string]float64{"c": float64(i)})
	}
	// No Close: the 2 buffered samples die with the process.
	s2 := openTest(t, Options{Dir: dir, Retention: -1})
	pts := s2.Query("c", ms(0), ms(20000), 0)
	if len(pts) != 4 || pts[3].V != 3 {
		t.Fatalf("after kill-9, query = %+v, want the 4 sealed samples", pts)
	}
}

func TestTruncationAtEveryBoundary(t *testing.T) {
	dir := t.TempDir()
	paths := fillStore(t, dir, 4)
	if len(paths) != 1 {
		t.Fatalf("want exactly 1 segment, got %d", len(paths))
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// Every header boundary plus a mid-payload cut.
	for _, cut := range []int{0, 3, 4, 7, 8, 15, 16, 19, 20, len(data) - 1} {
		if cut >= len(data) {
			continue
		}
		sub := t.TempDir()
		s := openTest(t, Options{Dir: sub, Retention: -1, SealSamples: 4})
		s.Append(ms(0), map[string]float64{"c": 1})
		s.Close()
		segs := segmentPaths(t, sub)
		if err := os.WriteFile(segs[0], data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openTest(t, Options{Dir: sub, Retention: -1})
		if pts := s2.Query("c", ms(0), ms(10000), 0); len(pts) != 0 {
			t.Fatalf("cut=%d: truncated segment served %+v", cut, pts)
		}
		if st := s2.Stats(); st.Corrupt != 1 {
			t.Fatalf("cut=%d: corrupt = %d, want 1", cut, st.Corrupt)
		}
		if q := quarantined(t, sub); len(q) != 1 {
			t.Fatalf("cut=%d: quarantine holds %v, want 1 file", cut, q)
		}
	}
}

func TestCorruptHeaderVariantsQuarantine(t *testing.T) {
	corrupt := func(name string, mut func(data []byte)) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			paths := fillStore(t, dir, 4)
			data, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			mut(data)
			if err := os.WriteFile(paths[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
			s := openTest(t, Options{Dir: dir, Retention: -1})
			if pts := s.Query("c", ms(0), ms(10000), 0); len(pts) != 0 {
				t.Fatalf("corrupt segment served %+v", pts)
			}
			st := s.Stats()
			if st.Corrupt != 1 || st.Segments != 0 {
				t.Fatalf("stats = %+v, want 1 corrupt, 0 segments", st)
			}
			q := quarantined(t, dir)
			if len(q) != 1 || !strings.HasSuffix(q[0], ".bad") {
				t.Fatalf("quarantine holds %v", q)
			}
		})
	}
	corrupt("bad-magic", func(d []byte) { d[0] = 'X' })
	corrupt("future-version", func(d []byte) {
		binary.LittleEndian.PutUint32(d[4:8], cas.FrameVersion+1)
	})
	corrupt("bad-length", func(d []byte) {
		binary.LittleEndian.PutUint64(d[8:16], uint64(len(d))) // claims more than present
	})
	corrupt("bad-checksum", func(d []byte) { d[cas.HeaderSize] ^= 0x01 })
	corrupt("payload-bit-flip", func(d []byte) { d[len(d)-2] ^= 0x40 })
}

func TestTempFileSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, 4)
	tmp := filepath.Join(dir, "segments", "seal-crashed.tmp")
	if err := os.WriteFile(tmp, []byte("half a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, Options{Dir: dir, Retention: -1})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived Open: %v", err)
	}
	if pts := s.Query("c", ms(0), ms(10000), 0); len(pts) != 4 {
		t.Fatalf("query after sweep = %+v", pts)
	}
}

// TestPostmortemTempSweptAtOpen: a WriteBundle that died mid-write
// leaves a pm-*.tmp that bundle pruning never matches; reopening the
// store removes it and keeps the finished bundles.
func TestPostmortemTempSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, 4)
	pm := filepath.Join(dir, "postmortem")
	bundle, err := WriteBundle(pm, Bundle{Schema: BundleSchemaVersion, Trigger: "manual"}, ms(1000))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(pm, "pm-x.tmp")
	if err := os.WriteFile(tmp, []byte("half a bundle"), 0o644); err != nil {
		t.Fatal(err)
	}
	openTest(t, Options{Dir: dir, Retention: -1})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("postmortem temp file survived Open: %v", err)
	}
	if _, err := ReadBundle(bundle); err != nil {
		t.Fatalf("finished bundle lost: %v", err)
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, 4)
	if err := os.WriteFile(filepath.Join(dir, "segments", "README"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, Options{Dir: dir, Retention: -1})
	st := s.Stats()
	if st.Segments != 1 || st.Corrupt != 0 {
		t.Fatalf("stats with foreign file = %+v", st)
	}
}

func TestSeqResumesPastExistingSegments(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, 8) // two segments, seq 0 and 1
	s := openTest(t, Options{Dir: dir, Retention: -1, SealSamples: 1})
	s.Append(ms(100000), map[string]float64{"c": 99})
	s.Close()
	paths := segmentPaths(t, dir)
	if len(paths) != 3 {
		t.Fatalf("segments = %v, want 3", paths)
	}
	// All three must coexist: the new seal must not have reused seq 0/1.
	s2 := openTest(t, Options{Dir: dir, Retention: -1})
	pts := s2.Query("c", ms(0), ms(200000), 0)
	if len(pts) != 9 || pts[8].V != 99 {
		t.Fatalf("query across generations = %+v", pts)
	}
}
