// Command qsched explores Multi-SIMD schedules interactively: it
// compiles a Scaffold-lite program (or built-in benchmark), evaluates it
// hierarchically under a chosen scheduler and machine configuration, and
// prints the full metric set — the per-run core of the paper's
// evaluation flow.
//
// Usage:
//
//	qsched -bench SHA-1 -sched lpfs -k 4 -local -1
//	qsched -sched rcp -k 2 program.scf
//
// Flags:
//
//	-sched rcp|lpfs  fine-grained scheduler (default lpfs)
//	-k N             SIMD regions (default 4)
//	-d N             qubits per region per step (default 0 = unlimited)
//	-local N         scratchpad capacity per region (0 none, -1 unlimited)
//	-fth N           flattening threshold (default 2000 for exploration)
//	-entry name      entry module (default "main")
//	-verify          run the independent legality oracle over every leaf
//	                 schedule and move list; failures name the module,
//	                 step, region and op
//	-report out.html       self-contained HTML schedule report (SVG
//	                       timeline with move arrows, utilization,
//	                       move/slack analytics; no external assets)
//	-report-json out.json  the same analytics as versioned JSON
//	                       (schema in internal/report)
//
// Observability (see DESIGN.md):
//
//	-trace out.json        Chrome trace-event timeline (Perfetto-loadable)
//	-metrics-out m.json    JSON metrics snapshot on exit
//	-metrics-addr :9090    live Prometheus endpoint during the run
//	-pprof-addr :6060      live net/http/pprof endpoint during the run
//	-decisions d.log       scheduler decision log (-decision-level step|op)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/obscli"
	"github.com/scaffold-go/multisimd/internal/request"
)

// config gathers the full flag surface: the shared request.Config (the
// same struct qschedd's JSON handlers decode, so CLI and service
// requests validate through one path) plus the CLI-only extras.
type config struct {
	req      request.Config
	dump     string
	report   string
	reportJS string
	obs      obscli.Flags
	args     []string
}

// benchmarkLabel names the run in report artifacts: the -bench name, or
// the source file's base name.
func (cfg config) benchmarkLabel() string {
	if cfg.req.Bench != "" {
		return cfg.req.Bench
	}
	if len(cfg.args) == 1 {
		return filepath.Base(cfg.args[0])
	}
	return "program"
}

func main() {
	var cfg config
	cfg.req.RegisterFlags(flag.CommandLine)
	flag.StringVar(&cfg.dump, "dump", "", "dump the fine-grained schedule of the named leaf module (timesteps, regions, move list)")
	flag.StringVar(&cfg.report, "report", "", "write a self-contained HTML schedule report (timeline, utilization, move analytics) to this `file`")
	flag.StringVar(&cfg.reportJS, "report-json", "", "write the versioned JSON schedule report to this `file`")
	cfg.obs.Register(flag.CommandLine)
	flag.Parse()
	cfg.args = flag.Args()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "qsched:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	req := cfg.req
	switch {
	case len(cfg.args) == 1 && req.Bench == "":
		data, err := os.ReadFile(cfg.args[0])
		if err != nil {
			return err
		}
		req.Source = string(data)
	case len(cfg.args) > 0:
		return fmt.Errorf("expected one source file or -bench name")
	}
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return err
	}
	obsv, err := cfg.obs.Setup(os.Stderr)
	if err != nil {
		return err
	}

	prog, err := req.Build(obsv)
	if err != nil {
		return err
	}
	eopts, err := req.EvalOptions()
	if err != nil {
		return err
	}
	eopts.Obs = obsv
	if cfg.dump != "" {
		// -dump schedules one leaf outside any evaluation: the scheduler logs.
		if err := dumpLeaf(prog, cfg.dump, req, core.WithDecisionLog(eopts.Scheduler, obsv.D())); err != nil {
			return err
		}
		return cfg.obs.Finish(obsv)
	}
	m, err := core.Evaluate(prog, eopts)
	if err != nil {
		return err
	}
	if err := cfg.obs.Finish(obsv); err != nil {
		return err
	}
	if cfg.report != "" || cfg.reportJS != "" {
		r, err := core.BuildReport(context.Background(), prog, cfg.benchmarkLabel(), m, eopts)
		if err != nil {
			return err
		}
		if cfg.report != "" {
			if err := r.WriteHTMLFile(cfg.report); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "qsched: HTML schedule report written to %s\n", cfg.report)
		}
		if cfg.reportJS != "" {
			if err := r.WriteJSONFile(cfg.reportJS); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "qsched: JSON schedule report written to %s\n", cfg.reportJS)
		}
	}

	fmt.Printf("scheduler:           %s\n", eopts.Scheduler.Name())
	if req.Verify {
		fmt.Printf("verification:        every leaf re-derived, legal and as served\n")
	}
	fmt.Printf("machine:             Multi-SIMD(%d,%s), local capacity %s\n", req.K, dStr(req.D), capStr(req.Local))
	fmt.Printf("modules / leaves:    %d / %d\n", m.Modules, m.Leaves)
	fmt.Printf("total gates:         %d\n", m.TotalGates)
	fmt.Printf("min qubits Q:        %d\n", m.MinQubits)
	fmt.Printf("critical path:       %d\n", m.CriticalPath)
	fmt.Printf("sequential cycles:   %d\n", m.SeqCycles)
	fmt.Printf("naive-move cycles:   %d\n", m.NaiveCycles)
	fmt.Printf("scheduled steps:     %d  (zero-cost communication)\n", m.ZeroCommSteps)
	fmt.Printf("comm-aware cycles:   %d\n", m.CommCycles)
	fmt.Printf("global moves (EPR):  %d\n", m.GlobalMoves)
	fmt.Printf("local moves:         %d\n", m.LocalMoves)
	fmt.Printf("speedup vs seq:      %.2fx (cp bound %.2fx)\n", m.SpeedupVsSeq(), m.CPSpeedup())
	fmt.Printf("speedup vs naive:    %.2fx\n", m.SpeedupVsNaive())
	return nil
}

func dStr(d int) string {
	if d == 0 {
		return "inf"
	}
	return fmt.Sprint(d)
}

func capStr(c int) string {
	switch {
	case c < 0:
		return "unlimited"
	case c == 0:
		return "none"
	default:
		return fmt.Sprint(c)
	}
}

// dumpLeaf prints the fine-grained schedule of one leaf module in the
// paper's timestep/region/move-list format — the same schedule
// qschedd's /v1/schedule serves for this request.
func dumpLeaf(prog *ir.Program, name string, req request.Config, sched core.Scheduler) error {
	mod, err := request.LeafModule(prog, name)
	if err != nil {
		return err
	}
	ls, err := req.ScheduleLeaf(mod, sched)
	if err != nil {
		return err
	}
	fmt.Printf("# %s: %d ops, cp %d, %d steps, %d cycles with movement (%d teleports, %d local moves)\n",
		name, ls.G.Len(), ls.G.CriticalPath(), ls.S.Length(), ls.Comm.Cycles, ls.Comm.GlobalMoves, ls.Comm.LocalMoves)
	fmt.Printf("# EPR pre-distribution (bandwidth %d/cycle, latency %d): %d pairs, %d issued before t0, peak buffer %d\n",
		ls.EPR.Bandwidth, ls.EPR.Latency, ls.Plan.Pairs, ls.Plan.PreIssued, ls.Plan.MaxBuffered)
	_, err = os.Stdout.WriteString(ls.Text)
	return err
}
