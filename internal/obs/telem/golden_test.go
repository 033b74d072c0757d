package telem

// Golden on-disk bytes for both frame kinds that go through internal/cas:
// a cas record ("QCAS") and a telemetry segment ("QTSG"). Existing
// stores (the committed bench/baselines/cas corpus, telemetry dirs of
// running daemons) must keep reading, so these bytes never change
// without a version bump. A frame of one kind placed in the other store
// must read as corrupt and be quarantined, never decoded.

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/scaffold-go/multisimd/internal/cas"
)

const (
	goldenRecord = "51434153010000001000000000000000de79c068" +
		"636861726163746572697a6174696f6e" // "characterization"
	goldenSegmentName = "seg-00000000000007d0-00000000-ds0.tseg"
	goldenSegment     = "51545347010000003900000000000000176298bf" +
		"7b22736368656d61223a312c226473223a302c2273616d706c6573223a5b" +
		"7b227473223a323030302c2276223a7b2263223a312e357d7d5d7d" // {"schema":1,"ds":0,"samples":[{"ts":2000,"v":{"c":1.5}}]}
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// casRecordPath is the store layout: shards/<key[0]&63 in hex>/<key>.rec.
func casRecordPath(dir string, k cas.Key) string {
	return filepath.Join(dir, "shards", fmt.Sprintf("%02x", k[0]&63), k.String()+".rec")
}

func TestGoldenFrames(t *testing.T) {
	casDir, telemDir := t.TempDir(), t.TempDir()
	c, err := cas.Open(cas.Options{Dir: casDir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := cas.NewKey("golden/v1", []byte("leaf"))
	c.Put(k, []byte("characterization"))
	if got, err := os.ReadFile(casRecordPath(casDir, k)); err != nil || !bytes.Equal(got, mustHex(t, goldenRecord)) {
		t.Fatalf("cas record = %x (%v), want %s", got, err, goldenRecord)
	}

	s := openTest(t, Options{Dir: telemDir, Retention: -1, SealSamples: 1})
	s.Append(ms(2000), map[string]float64{"c": 1.5})
	s.Close()
	got, err := os.ReadFile(filepath.Join(telemDir, "segments", goldenSegmentName))
	if err != nil || !bytes.Equal(got, mustHex(t, goldenSegment)) {
		t.Fatalf("segment = %x (%v), want %s", got, err, goldenSegment)
	}
}

func TestFrameInWrongStoreQuarantined(t *testing.T) {
	t.Run("segment-in-cas", func(t *testing.T) {
		dir := t.TempDir()
		c, err := cas.Open(cas.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		k := cas.NewKey("golden/v1", []byte("leaf"))
		if err := os.WriteFile(casRecordPath(dir, k), mustHex(t, goldenSegment), 0o644); err != nil {
			t.Fatal(err)
		}
		if v, ok := c.Get(k); ok {
			t.Fatalf("cas served a QTSG segment as %q", v)
		}
		if st := c.Stats(); st.Corrupt != 1 || st.Entries != 0 {
			t.Fatalf("cas stats = %+v, want 1 corrupt, 0 entries", st)
		}
		if _, err := os.Stat(filepath.Join(dir, "quarantine", k.String()+".bad")); err != nil {
			t.Fatalf("QTSG segment not quarantined: %v", err)
		}
	})
	t.Run("record-in-telem", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "segments", goldenSegmentName), mustHex(t, goldenRecord), 0o644); err != nil {
			t.Fatal(err)
		}
		s := openTest(t, Options{Dir: dir, Retention: -1})
		if st := s.Stats(); st.Corrupt != 1 || st.Segments != 0 {
			t.Fatalf("telem stats = %+v, want 1 corrupt, 0 segments", st)
		}
		if _, err := os.Stat(filepath.Join(dir, "quarantine", goldenSegmentName+".bad")); err != nil {
			t.Fatalf("QCAS record not quarantined: %v", err)
		}
	})
}
