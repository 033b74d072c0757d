package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/request"
	"github.com/scaffold-go/multisimd/internal/server"
)

// baselineDir holds the committed per-benchmark records the outputs are
// checked against: REPORT_<name>.json totals and BENCH_<name>.json's
// speedup, both for lpfs at k=4 and fth=2000 (the request defaults).
const baselineDir = "bench/baselines"

// loadBaseline reads the committed lpfs k=4 totals of one gated
// benchmark and cross-checks the two records against each other.
func loadBaseline(name string) (server.MetricsBody, error) {
	var rep struct {
		Totals server.MetricsBody `json:"totals"`
	}
	var perf struct {
		SpeedupVsNaive float64 `json:"speedup_vs_naive"`
	}
	if err := readJSON(filepath.Join(baselineDir, "REPORT_"+name+".json"), &rep); err != nil {
		return server.MetricsBody{}, err
	}
	if err := readJSON(filepath.Join(baselineDir, "BENCH_"+name+".json"), &perf); err != nil {
		return server.MetricsBody{}, err
	}
	if perf.SpeedupVsNaive != rep.Totals.SpeedupVsNaive || rep.Totals.CommCycles == 0 {
		return server.MetricsBody{}, fmt.Errorf("baselines for %s disagree: BENCH speedup %v, REPORT %v",
			name, perf.SpeedupVsNaive, rep.Totals.SpeedupVsNaive)
	}
	return rep.Totals, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// body renders engine metrics the way the service's /v1/compile does.
func body(m *core.Metrics) server.MetricsBody {
	return server.MetricsBody{
		TotalGates: m.TotalGates, MinQubits: m.MinQubits,
		Modules: m.Modules, Leaves: m.Leaves,
		CriticalPath: m.CriticalPath, ZeroCommSteps: m.ZeroCommSteps,
		CommCycles: m.CommCycles, GlobalMoves: m.GlobalMoves, LocalMoves: m.LocalMoves,
		SeqCycles: m.SeqCycles, NaiveCycles: m.NaiveCycles,
		SpeedupVsSeq: m.SpeedupVsSeq(), SpeedupVsNaive: m.SpeedupVsNaive(), CPSpeedup: m.CPSpeedup(),
	}
}

// verified evaluates cfg in process on a fresh cache with the
// independent legality oracle on (every leaf schedule and move list is
// checked), giving the reference a served answer must equal.
func verified(cfg request.Config) (server.MetricsBody, error) {
	cfg = cfg.WithDefaults()
	cfg.Verify = true
	if err := cfg.Validate(); err != nil {
		return server.MetricsBody{}, err
	}
	p, err := cfg.Build(nil)
	if err != nil {
		return server.MetricsBody{}, err
	}
	eopts, err := cfg.EvalOptions()
	if err != nil {
		return server.MetricsBody{}, err
	}
	m, err := core.Evaluate(p, eopts)
	if err != nil {
		return server.MetricsBody{}, fmt.Errorf("%s: %w", cfg.Label(), err)
	}
	return body(m), nil
}
