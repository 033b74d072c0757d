package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/request"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/server"
)

// testConfig fills the defaults the flag declarations would.
func testConfig(schedName, benchName, dump string, verify bool) config {
	return config{
		req: request.Config{
			Scheduler: schedName, K: 4, Local: -1, FTh: 2000,
			Entry: "main", Bench: benchName, Verify: verify,
		},
		dump: dump,
	}
}

func TestRunEvaluation(t *testing.T) {
	for _, sched := range []string{"rcp", "lpfs"} {
		if err := run(testConfig(sched, "Grovers", "", false)); err != nil {
			t.Errorf("%s: %v", sched, err)
		}
	}
}

func TestRunDump(t *testing.T) {
	cfg := testConfig("lpfs", "BWT", "walk_step", false)
	cfg.req.K = 2
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDumpMatchesScheduleEndpoint: qsched -dump and qschedd's
// /v1/schedule print the same schedule for the same request, including
// non-default communication options (-no-overlap, -epr).
func TestDumpMatchesScheduleEndpoint(t *testing.T) {
	cfg := testConfig("lpfs", "Grovers", "diffusion", false)
	cfg.req.Local = 0
	cfg.req.NoOverlap = true
	cfg.req.EPRBandwidth = 1

	out, err := os.CreateTemp(t.TempDir(), "dump")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = run(cfg)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	dump, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()
	body, err := json.Marshal(server.ScheduleRequest{Config: cfg.req, Module: cfg.dump})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr server.ScheduleResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/schedule: status %d, decode error %v", resp.StatusCode, err)
	}
	if sr.EPR.Bandwidth != 1 {
		t.Errorf("server EPR bandwidth %d, want 1", sr.EPR.Bandwidth)
	}
	text := string(dump)
	for _, want := range []string{
		fmt.Sprintf("# diffusion: %d ops, cp %d, %d steps, %d cycles with movement (%d teleports, %d local moves)\n",
			sr.Ops, sr.CriticalPath, sr.Steps, sr.Cycles, sr.GlobalMoves, sr.LocalMoves),
		fmt.Sprintf("# EPR pre-distribution (bandwidth %d/cycle, latency %d): %d pairs, %d issued before t0, peak buffer %d\n",
			sr.EPR.Bandwidth, sr.EPR.Latency, sr.EPR.Pairs, sr.EPR.PreIssued, sr.EPR.MaxBuffered),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("dump lacks the server's %q; dump header:\n%s", want, text[:strings.Index(text, "\n# EPR")])
		}
	}
	if !strings.HasSuffix(text, sr.Text) {
		t.Error("dump's schedule text differs from the server's")
	}
}

func TestRunObservabilityArtifacts(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig("lpfs", "Grovers", "", false)
	cfg.obs.Trace = dir + "/trace.json"
	cfg.obs.MetricsOut = dir + "/metrics.json"
	cfg.obs.Decisions = dir + "/decisions.log"
	cfg.obs.DecisionLevel = "op"
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cfg.obs.Trace, cfg.obs.MetricsOut, cfg.obs.Decisions} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("artifact missing: %v", err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	data, _ := os.ReadFile(cfg.obs.Trace)
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("-trace output has no events")
	}
	data, _ = os.ReadFile(cfg.obs.MetricsOut)
	if !json.Valid(data) {
		t.Error("-metrics-out output is not valid JSON")
	}
}

// TestReportLeavesDecisionLogUnchanged: the report and the -verify
// audit reschedule every leaf without the decision log, so -decisions
// is byte-identical with and without -report-json or -verify.
// Concurrent leaf tasks interleave their records, so the evaluation
// runs on one worker (GOMAXPROCS 1).
func TestReportLeavesDecisionLogUnchanged(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir := t.TempDir()
	var logs [][]byte
	for i, in := range []struct{ report, verify bool }{{}, {report: true}, {verify: true}} {
		// rcp: lpfs logs no decision on this leaf at width k, so a
		// report rescheduled through the logging scheduler would go unseen.
		cfg := testConfig("rcp", "Grovers", "", in.verify)
		cfg.obs.Decisions = fmt.Sprintf("%s/decisions-%d.log", dir, i)
		cfg.obs.DecisionLevel = "op"
		if in.report {
			cfg.reportJS = dir + "/report.json"
		}
		if err := run(cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(cfg.obs.Decisions)
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, data)
	}
	if len(logs[0]) == 0 {
		t.Fatal("empty decision log")
	}
	for i, in := range []string{"-report-json", "-verify"} {
		if !bytes.Equal(logs[0], logs[i+1]) {
			t.Errorf("%s changed the decision log: %d vs %d bytes", in, len(logs[0]), len(logs[i+1]))
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(testConfig("quantum", "Grovers", "", false)); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if err := run(testConfig("lpfs", "", "", false)); err == nil {
		t.Error("no input accepted")
	}
	if err := run(testConfig("lpfs", "NotABench", "", false)); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run(testConfig("lpfs", "BWT", "no_such_module", false)); err == nil {
		t.Error("unknown dump module accepted")
	}
	if err := run(testConfig("lpfs", "BWT", "main", false)); err == nil {
		t.Error("non-leaf dump accepted")
	}
	bad := testConfig("lpfs", "Grovers", "", false)
	bad.obs.DecisionLevel = "verbose"
	if err := run(bad); err == nil {
		t.Error("bad -decision-level accepted")
	}
	// k above request.MaxK fails validation before anything runs: the
	// -metrics-out snapshot an evaluation would write never appears.
	wide := testConfig("lpfs", "Grovers", "", false)
	wide.req.K = request.MaxK + 1
	wide.obs.MetricsOut = t.TempDir() + "/metrics.json"
	if err := run(wide); err == nil || !strings.Contains(err.Error(), "k must be") {
		t.Errorf("k=%d: error %v, want a k validation error", wide.req.K, err)
	}
	if _, err := os.Stat(wide.obs.MetricsOut); !os.IsNotExist(err) {
		t.Errorf("k=%d wrote %s (stat: %v)", wide.req.K, wide.obs.MetricsOut, err)
	}
}

// TestRunVerify exercises the -verify flag: the real schedulers pass the
// legality oracle on a benchmark run.
func TestRunVerify(t *testing.T) {
	for _, sched := range []string{"rcp", "lpfs"} {
		if err := run(testConfig(sched, "Grovers", "", true)); err != nil {
			t.Errorf("%s -verify: %v", sched, err)
		}
	}
}

// evilScheduler emits every op in its own timestep in reverse program
// order — a deliberately illegal schedule (dependencies run backwards)
// for testing that -verify rejects it.
type evilScheduler struct{}

func (evilScheduler) Name() string { return "evil" }

func (evilScheduler) Schedule(m *ir.Module, g *dag.Graph, k, d int) (*schedule.Schedule, error) {
	s := &schedule.Schedule{M: m, K: k, D: d}
	for op := len(m.Ops) - 1; op >= 0; op-- {
		s.Steps = append(s.Steps, schedule.Step{Regions: [][]int32{{int32(op)}}})
	}
	return s, nil
}

func init() { schedule.Register(evilScheduler{}) }

// TestRunVerifyRejectsIllegalSchedule is the acceptance gate for the
// -verify flag: a scheduler producing an illegal schedule must fail the
// run with a located (module, step, op) diagnostic, and must sail
// through unnoticed when verification is off.
func TestRunVerifyRejectsIllegalSchedule(t *testing.T) {
	err := run(testConfig("evil", "Grovers", "", true))
	if err == nil {
		t.Fatal("-verify accepted a reverse-order schedule")
	}
	msg := err.Error()
	for _, want := range []string{"verify:", "dependency-order", "step", "op"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q lacks %q", msg, want)
		}
	}
	// Without -verify the illegal schedule goes undetected — the very
	// gap the oracle exists to close.
	if err := run(testConfig("evil", "Grovers", "", false)); err != nil {
		t.Errorf("unverified run surfaced an unexpected error: %v", err)
	}
}
