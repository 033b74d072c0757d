package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/obscli"
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

// fig6DecisionLogSHA256 is the SHA-256 of -experiment fig6's decision
// log at small scale, taken when each variant of a sweep still ran its
// own worker pool, one after another: the pooled sweep must log the same
// decisions in the same order.
const fig6DecisionLogSHA256 = "c6bbf67690e55b3930735fd7561757d19a004a9424ec55300533822b39dd4654"

// TestFig6DecisionLogAcrossWorkers: -experiment fig6 with -decisions
// logs the decisions of the paper's schedulers, and the log is byte for
// byte the same at -workers 1 and -workers 4, and the pinned log
// (fig6DecisionLogSHA256). Each run starts from fresh workloads, as a
// new qbench process would.
func TestFig6DecisionLogAcrossWorkers(t *testing.T) {
	defer func(o *obs.Observer, m map[string][]core.Workload) { observer, workloadMemo = o, m }(observer, workloadMemo)
	dir := t.TempDir()
	var logs [][]byte
	for _, workers := range []int{1, 4} {
		f := obscli.Flags{Decisions: filepath.Join(dir, fmt.Sprintf("workers-%d.log", workers))}
		var err error
		if observer, err = f.Setup(io.Discard); err != nil {
			t.Fatal(err)
		}
		workloadMemo = map[string][]core.Workload{}
		if err := run(io.Discard, "fig6", "small", 0, "lpfs", workers); err != nil {
			t.Fatal(err)
		}
		if err := f.Finish(observer); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(f.Decisions)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("-workers %d: empty decision log", workers)
		}
		logs = append(logs, data)
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Errorf("decision log differs between -workers 1 and 4: %d vs %d bytes", len(logs[0]), len(logs[1]))
	}
	if sum := sha256.Sum256(logs[0]); hex.EncodeToString(sum[:]) != fig6DecisionLogSHA256 {
		t.Errorf("decision log SHA-256 %x, want %s", sum, fig6DecisionLogSHA256)
	}
}

// TestTable2Observed: -experiment table2 instruments its evaluations,
// so -decisions and -metrics-out record the rotation sweep's scheduling
// rather than an empty log and an empty snapshot.
func TestTable2Observed(t *testing.T) {
	defer func(o *obs.Observer) { observer = o }(observer)
	dir := t.TempDir()
	f := obscli.Flags{Decisions: filepath.Join(dir, "d.log"), MetricsOut: filepath.Join(dir, "m.json")}
	var err error
	if observer, err = f.Setup(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, "table2", "small", 0, "lpfs", 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Finish(observer); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(f.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 {
		t.Error("empty table2 decision log")
	}
	data, err := os.ReadFile(f.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct{ Counters map[string]int64 }
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["engine.tasks"] == 0 {
		t.Errorf("table2 metrics snapshot counts no engine tasks: %s", data)
	}
}
