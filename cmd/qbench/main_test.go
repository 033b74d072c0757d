package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// wallMS matches the fth table's wall-clock analysis column, the one
// column of experiment output that is not deterministic.
var wallMS = regexp.MustCompile(`(?m) +\d+ms$`)

// TestExperimentsRun runs every experiment end to end at small scale
// and compares its output byte for byte with testdata/<experiment>.txt,
// masking only fth's wall-clock column.
func TestExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is slow; run without -short")
	}
	for _, exp := range experiments {
		t.Run(exp, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, exp, "small", 0, "lpfs", 0); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", exp+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got := out.Bytes()
			if exp == "fth" {
				got, want = wallMS.ReplaceAll(got, []byte(" <ms>")), wallMS.ReplaceAll(want, []byte(" <ms>"))
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from testdata/%s.txt\ngot:\n%s\nwant:\n%s", exp, got, want)
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, "fig99", "small", 0, "lpfs", 0); err == nil {
		t.Error("unknown experiment accepted")
	}
}
