package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/report"
)

// TestRunReportAllBenchmarks is the acceptance gate for -report: every
// bundled benchmark must render a self-contained HTML report (no
// external assets) and a JSON report that passes schema validation.
func TestRunReportAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark report sweep is slow; run without -short")
	}
	dir := t.TempDir()
	for _, b := range bench.AllSmall() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			cfg := testConfig("lpfs", b.Name, "", false)
			cfg.report = filepath.Join(dir, b.Name+".html")
			cfg.reportJS = filepath.Join(dir, b.Name+".json")
			if err := run(cfg); err != nil {
				t.Fatal(err)
			}

			data, err := os.ReadFile(cfg.report)
			if err != nil {
				t.Fatal(err)
			}
			html := string(data)
			for _, banned := range []string{"<script", "<link", "<img", "http://", "https://", "url(", "@import", "src="} {
				if strings.Contains(html, banned) {
					t.Errorf("HTML report contains %q — not self-contained", banned)
				}
			}
			for _, want := range []string{"<svg", b.Name} {
				if !strings.Contains(html, want) {
					t.Errorf("HTML report missing %q", want)
				}
			}

			r, err := report.ReadFile(cfg.reportJS)
			if err != nil {
				t.Fatal(err)
			}
			if r.Benchmark != b.Name || len(r.Modules) == 0 {
				t.Errorf("JSON report: benchmark %q with %d modules", r.Benchmark, len(r.Modules))
			}
			// Only modules up to the report's step cap carry a Gantt; the
			// SHA-1 report (CI's uploaded artifact) must have one.
			if b.Name == "SHA-1" && !slices.ContainsFunc(r.Modules, func(m report.ModuleReport) bool { return m.Gantt != nil }) {
				t.Error("JSON report: no module carries a Gantt timeline")
			}
		})
	}
}

// TestRunReportJSONOnly exercises the -report-json flag alone, with
// verification on so the profiled numbers ride on checked move lists.
func TestRunReportJSONOnly(t *testing.T) {
	cfg := testConfig("rcp", "Grovers", "", true)
	cfg.reportJS = filepath.Join(t.TempDir(), "g.json")
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	r, err := report.ReadFile(cfg.reportJS)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheduler != "rcp" || r.K != 4 {
		t.Errorf("report config %s/k=%d, want rcp/4", r.Scheduler, r.K)
	}
}
