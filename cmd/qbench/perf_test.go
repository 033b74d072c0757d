package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
// every wall-time gate: cold and warm against the baseline, disk-warm
// against the record's own warm time.
func TestCheckAgainstGatesColdAndWarm(t *testing.T) {
	dir := t.TempDir()
	writeBaseline(t, dir, perfRecord{Benchmark: "X", ColdWallMS: 100, WarmWallMS: 40})

	// Within every limit (cold 100*1.25+50=175, warm 40*1.25+50=100,
	// disk-warm 2*95+50=240).
	ok := perfRecord{Benchmark: "X", ColdWallMS: 170, WarmWallMS: 95, DiskWarmWallMS: 240}
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

	diskWarm := perfRecord{Benchmark: "X", ColdWallMS: 10, WarmWallMS: 10, DiskWarmWallMS: 70.1}
	if err := checkAgainst(dir, diskWarm); err == nil || !strings.Contains(err.Error(), "disk-warm wall") {
		t.Errorf("disk-warm regression not caught: %v", err)
	}

	// New benchmarks join the trajectory without a baseline; the
	// disk-warm gate needs none.
	if err := checkAgainst(dir, perfRecord{Benchmark: "Y", ColdWallMS: 1e6, WarmWallMS: 1e6}); err != nil {
		t.Errorf("missing baseline rejected: %v", err)
	}
	if err := checkAgainst(dir, perfRecord{Benchmark: "Y", DiskWarmWallMS: 51}); err == nil {
		t.Error("disk-warm regression without a baseline not caught")
	}
}
