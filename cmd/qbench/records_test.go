package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/report"
)

// baselinesDir holds every committed record the record pass writes:
// BENCH_<name>.json perf records, REPORT_<name>.json schedule reports
// and the seed corpus cas/ that qschedd -cache-preload and the
// service-warm workload serve from.
const baselinesDir = "../../bench/baselines"

// hostFields are the BENCH_<name>.json fields that depend on the host:
// the wall times and the worker pool's shape. Every other field is
// pinned.
var hostFields = []string{"cold_wall_ms", "warm_wall_ms", "disk_warm_wall_ms", "peak_goroutines", "gomaxprocs", "workers"}

// The record pass (-perf-out) writes every committed record; three
// tests run it into a temporary directory and pin what it wrote against
// bench/baselines:
//   - TestReportBaselinesCurrent: every REPORT_<name>.json byte for byte;
//     a mismatch prints the module, region and step attribution of
//     report.Diff;
//   - TestWritePerfRecordsEmitsReports: a BENCH_<name>.json and a
//     readable REPORT_<name>.json per gated benchmark, and every BENCH
//     field but hostFields, the engine's work counters included;
//   - TestSeedCorpusCurrent: exactly the record files of cas/, byte for
//     byte.
//
// After an intended change, run `go run ./cmd/qbench -perf-out <empty
// dir>` and copy its REPORT_*.json files, its cas/ directory and the
// non-host fields of its BENCH_*.json files into bench/baselines.

// recordPass runs the record pass into a temporary directory and
// returns it.
func recordPass(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := writeRecords(io.Discard, dir, "lpfs", 0, 0); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestReportBaselinesCurrent(t *testing.T) {
	dir := recordPass(t)
	for _, b := range bench.Gated() {
		name := "REPORT_" + b.Name + ".json"
		if !bytes.Equal(readFile(t, dir, name), readFile(t, baselinesDir, name)) {
			t.Errorf("%s differs from the report -perf-out writes now:\n%s", name, reportDiff(t, dir, name))
		}
	}
}

func TestWritePerfRecordsEmitsReports(t *testing.T) {
	dir := recordPass(t)
	for _, b := range bench.Gated() {
		r, err := report.ReadFile(filepath.Join(dir, "REPORT_"+b.Name+".json"))
		if err != nil {
			t.Errorf("%s: %v", b.Name, err)
		} else if r.Benchmark != b.Name || len(r.Modules) == 0 {
			t.Errorf("%s: report names %q with %d modules", b.Name, r.Benchmark, len(r.Modules))
		}
		name := "BENCH_" + b.Name + ".json"
		got, want := benchFields(t, dir, name), benchFields(t, baselinesDir, name)
		all := maps.Clone(got)
		maps.Copy(all, want)
		for _, f := range slices.Sorted(maps.Keys(all)) {
			if got[f] != want[f] {
				t.Errorf("%s: %s is %s, committed %s", b.Name, f, orAbsent(got[f]), orAbsent(want[f]))
			}
		}
	}
}

func TestSeedCorpusCurrent(t *testing.T) {
	dir := recordPass(t)
	got := corpusRecords(t, filepath.Join(dir, "cas"))
	want := corpusRecords(t, filepath.Join(baselinesDir, "cas"))
	if len(want) == 0 {
		t.Fatalf("no records under %s/cas", baselinesDir)
	}
	for path, data := range got {
		committed, ok := want[path]
		switch {
		case !ok:
			t.Errorf("cas/%s: written by -perf-out but not committed", path)
		case !bytes.Equal(data, committed):
			t.Errorf("cas/%s: committed record differs from the one -perf-out writes", path)
		}
	}
	for path := range want {
		if _, ok := got[path]; !ok {
			t.Errorf("cas/%s: committed but no longer written by -perf-out", path)
		}
	}
}

func readFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// reportDiff renders report.Diff from the committed report name to the
// one in dir.
func reportDiff(t *testing.T, dir, name string) string {
	t.Helper()
	base, err := report.ReadFile(filepath.Join(baselinesDir, name))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := report.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := report.Diff(base, fresh).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// benchFields flattens a BENCH record into its pinned fields, nested
// objects as "object.key", each value as its JSON text.
func benchFields(t *testing.T, dir, name string) map[string]string {
	t.Helper()
	var rec map[string]any
	dec := json.NewDecoder(bytes.NewReader(readFile(t, dir, name)))
	dec.UseNumber()
	if err := dec.Decode(&rec); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, f := range hostFields {
		delete(rec, f)
	}
	out := map[string]string{}
	for k, v := range rec {
		obj, ok := v.(map[string]any)
		if !ok {
			out[k] = fmt.Sprint(v)
			continue
		}
		for sub, x := range obj {
			out[k+"."+sub] = fmt.Sprint(x)
		}
	}
	return out
}

func orAbsent(v string) string {
	if v == "" {
		return "absent"
	}
	return v
}

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
