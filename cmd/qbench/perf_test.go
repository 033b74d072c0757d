package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/report"
)

func writeBaseline(t *testing.T, dir string, rec perfRecord) {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_"+rec.Benchmark+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckAgainstGatesColdAndWarm covers the pass and fail branches of
// the wall-time gate on both the cold and warm measurements.
func TestCheckAgainstGatesColdAndWarm(t *testing.T) {
	dir := t.TempDir()
	writeBaseline(t, dir, perfRecord{Benchmark: "X", ColdWallMS: 100, WarmWallMS: 40})

	// Within both limits (cold 100*1.25+50=175, warm 40*1.25+50=100).
	ok := perfRecord{Benchmark: "X", ColdWallMS: 170, WarmWallMS: 95}
	if err := checkAgainst(dir, ok); err != nil {
		t.Errorf("in-limit record rejected: %v", err)
	}

	cold := perfRecord{Benchmark: "X", ColdWallMS: 176, WarmWallMS: 10}
	if err := checkAgainst(dir, cold); err == nil || !strings.Contains(err.Error(), "cold wall") {
		t.Errorf("cold regression not caught: %v", err)
	}

	warm := perfRecord{Benchmark: "X", ColdWallMS: 10, WarmWallMS: 101}
	if err := checkAgainst(dir, warm); err == nil || !strings.Contains(err.Error(), "warm wall") {
		t.Errorf("warm regression not caught: %v", err)
	}

	// New benchmarks join the trajectory without a baseline.
	if err := checkAgainst(dir, perfRecord{Benchmark: "Y", ColdWallMS: 1e6, WarmWallMS: 1e6}); err != nil {
		t.Errorf("missing baseline rejected: %v", err)
	}
}

// minimalReport builds the smallest valid schedule report for gate
// branch tests.
func minimalReport(commCycles, zeroSteps int64) *report.Report {
	return &report.Report{
		Schema: report.SchemaVersion, Benchmark: "X", Scheduler: "lpfs", K: 4,
		Totals: report.Totals{Metrics: report.Metrics{CommCycles: commCycles, ZeroCommSteps: zeroSteps}},
	}
}

func TestCheckReportAgainstBranches(t *testing.T) {
	dir := t.TempDir()
	if err := minimalReport(100, 80).WriteJSONFile(filepath.Join(dir, "REPORT_X.json")); err != nil {
		t.Fatal(err)
	}

	if err := checkReportAgainst(dir, minimalReport(100, 80)); err != nil {
		t.Errorf("identical report rejected: %v", err)
	}
	if err := checkReportAgainst(dir, minimalReport(90, 75)); err != nil {
		t.Errorf("improvement rejected: %v", err)
	}
	err := checkReportAgainst(dir, minimalReport(120, 80))
	if err == nil || !strings.Contains(err.Error(), "schedule regression") {
		t.Errorf("longer comm-expanded runtime not caught: %v", err)
	}
	err = checkReportAgainst(dir, minimalReport(100, 90))
	if err == nil || !strings.Contains(err.Error(), "schedule regression") {
		t.Errorf("longer zero-comm schedule not caught: %v", err)
	}
	fresh := minimalReport(100, 80)
	fresh.Benchmark = "Y"
	if err := checkReportAgainst(dir, fresh); err != nil {
		t.Errorf("missing baseline rejected: %v", err)
	}
}

// TestWritePerfRecordsEmitsReports runs the full -perf-out sweep and
// checks every benchmark got both its perf record and a valid schedule
// report, then injects a baseline regression and checks the -report-
// against gate attributes and fails on it.
func TestWritePerfRecordsEmitsReports(t *testing.T) {
	if testing.Short() {
		t.Skip("full perf sweep is slow; run without -short")
	}
	dir := t.TempDir()
	if err := writePerfRecords(dir, "", "", "lpfs", 0, 0); err != nil {
		t.Fatal(err)
	}
	var sha *report.Report
	for _, b := range bench.Gated() {
		if _, err := os.Stat(filepath.Join(dir, "BENCH_"+b.Name+".json")); err != nil {
			t.Errorf("missing perf record: %v", err)
		}
		r, err := report.ReadFile(filepath.Join(dir, "REPORT_"+b.Name+".json"))
		if err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		if r.Benchmark != b.Name || len(r.Modules) == 0 {
			t.Errorf("%s: report names %q with %d modules", b.Name, r.Benchmark, len(r.Modules))
		}
		if b.Name == "SHA-1" {
			sha = r
		}
	}
	if sha == nil {
		t.Fatal("no SHA-1 report")
	}

	// Baseline claiming SHA-1 used to finish faster: the fresh report must
	// trip the gate with module-level attribution.
	baseDir := t.TempDir()
	worse := *sha
	worse.Totals.CommCycles -= 10
	if err := worse.WriteJSONFile(filepath.Join(baseDir, "REPORT_SHA-1.json")); err != nil {
		t.Fatal(err)
	}
	err := checkReportAgainst(baseDir, sha)
	if err == nil || !strings.Contains(err.Error(), "schedule regression") {
		t.Errorf("injected baseline regression not caught: %v", err)
	}
	// Against its own output the gate passes clean.
	if err := checkReportAgainst(dir, sha); err != nil {
		t.Errorf("self-comparison failed: %v", err)
	}
}
