package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
)

// baselinesDir holds the committed REPORT_<name>.json schedule reports
// the CI perf job's -report-against gate compares with.
const baselinesDir = "../../bench/baselines"

// TestReportBaselinesCurrent rebuilds every gated benchmark's schedule
// report the way -perf-out does and requires the committed one to match
// it byte for byte. After an intended schedule change, run
// `go run ./cmd/qbench -perf-out <tmp>` and copy its REPORT_*.json files
// into bench/baselines (its BENCH_*.json wall times are host-specific).
func TestReportBaselinesCurrent(t *testing.T) {
	sched, err := core.SchedulerByName("lpfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bench.Gated() {
		w, opts, err := perfWorkload(b, sched, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.Evaluate(w.Prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.BuildReport(context.Background(), w.Prog, b.Name, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := r.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(baselinesDir, "REPORT_"+b.Name+".json")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from the report -perf-out builds now", path)
		}
	}
}
