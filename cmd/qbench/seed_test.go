package main

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// seedCorpusDir is the committed preload qschedd -cache-preload and the
// service-warm workload serve from.
const seedCorpusDir = "../../bench/baselines/cas"

// corpusRecords reads every record file under dir, keyed by its path
// relative to dir. Empty shard directories carry no record and are
// skipped, as git does not keep them.
func corpusRecords(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	recs := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		recs[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestSeedCorpusCurrent regenerates the seed corpus and requires the
// committed one to hold exactly the same record files, byte for byte:
// a record the current build no longer writes (a stale key or domain)
// or a missing or changed one fails it. Regenerate with
// `go run ./cmd/qbench -seed-cache bench/baselines/cas` on an emptied
// directory.
func TestSeedCorpusCurrent(t *testing.T) {
	dir := t.TempDir()
	if err := writeSeedCorpus(io.Discard, dir); err != nil {
		t.Fatal(err)
	}
	got := corpusRecords(t, dir)
	want := corpusRecords(t, seedCorpusDir)
	if len(want) == 0 {
		t.Fatalf("no records under %s", seedCorpusDir)
	}
	for path, data := range got {
		committed, ok := want[path]
		switch {
		case !ok:
			t.Errorf("%s: written by -seed-cache but not committed", path)
		case !bytes.Equal(data, committed):
			t.Errorf("%s: committed record differs from the regenerated one", path)
		}
	}
	for path := range want {
		if _, ok := got[path]; !ok {
			t.Errorf("%s: committed but no longer written by -seed-cache", path)
		}
	}
	if !t.Failed() {
		t.Logf("%d records match", len(got))
	}
}
