// Command qbench regenerates every table and figure of the paper's
// evaluation (§5): Fig. 5 (module gate-count histograms and FTh),
// Fig. 6 (parallelism-only speedups vs the critical path), Fig. 7
// (communication-aware speedups over naive movement), Fig. 8 (local
// scratchpad capacity sweep), Fig. 9 (Shor's k-sensitivity), Table 1
// (minimum qubit counts Q) and Table 2 (parallel-rotation
// serialization), plus the extended studies (d and EPR-bandwidth
// sensitivity, scheduler ablations, the FTh sweep and distributed
// global memory).
//
// Usage:
//
//	qbench -experiment all            # the paper's figures and tables, small-scale workloads
//	qbench -experiment extended       # the extended studies
//	qbench -experiment fig7           # one experiment
//	qbench -experiment fig5 -scale paper
//	qbench -experiment table1 -scale paper
//
// Fig. 5 and Table 1 run at the paper's parameterizations when given
// -scale paper (they only need symbolic resource estimation); the
// scheduling experiments always use the scaled-down workloads whose
// leaves can be materialized (see DESIGN.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/numa"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/obscli"
	"github.com/scaffold-go/multisimd/internal/report"
	"github.com/scaffold-go/multisimd/internal/request"
	"github.com/scaffold-go/multisimd/internal/resource"
)

// observer instruments every evaluation of the run when any -trace /
// -metrics / -decisions flag was given; buildWorkload stamps it on each
// workload (nil = off).
var observer *obs.Observer

func main() {
	exp := flag.String("experiment", "all", fmt.Sprintf("experiment to run: all (%s), extended (%s), or any one of these",
		strings.Join(experiments[:paperExperiments], ", "), strings.Join(experiments[paperExperiments:], ", ")))
	scale := flag.String("scale", "small", "workload scale for fig5/table1: small or paper")
	fth := flag.Int64("fth", 0, "flattening threshold override (0 = scale default)")
	schedName := flag.String("sched", "lpfs", "scheduler for the extended experiments (registered: rcp, lpfs)")
	workers := flag.Int("workers", 0, "evaluation concurrency (0 = GOMAXPROCS, 1 = serial)")
	perfOut := flag.String("perf-out", "", "write per-benchmark BENCH_<name>.json perf records and REPORT_<name>.json schedule reports into this `dir` instead of running an experiment")
	perfAgainst := flag.String("perf-against", "", "baseline `dir` of committed BENCH_<name>.json records; with -perf-out, fail if any cold or warm wall time exceeds its baseline by more than 25% + 50ms, or any disk-warm wall time exceeds 2x its warm time + 50ms")
	reportAgainst := flag.String("report-against", "", "baseline `dir` of committed REPORT_<name>.json schedule reports; with -perf-out, attribute any schedule-level delta to modules/regions/steps and fail on a schedule regression")
	seedCache := flag.String("seed-cache", "", "write a persistent result-store corpus for the gated benchmarks (request defaults: lpfs, k=4, fth=2000) into this `dir` instead of running an experiment; serve it with qschedd -cache-preload")
	var obsFlags obscli.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	err := func() error {
		var err error
		observer, err = obsFlags.Setup(os.Stderr)
		if err != nil {
			return err
		}
		if *seedCache != "" {
			return writeSeedCorpus(os.Stdout, *seedCache)
		}
		if *perfOut != "" {
			return writePerfRecords(*perfOut, *perfAgainst, *reportAgainst, *schedName, *fth, *workers)
		}
		if *perfAgainst != "" {
			return fmt.Errorf("-perf-against requires -perf-out")
		}
		if *reportAgainst != "" {
			return fmt.Errorf("-report-against requires -perf-out")
		}
		if err := run(os.Stdout, *exp, *scale, *fth, *schedName, *workers); err != nil {
			return err
		}
		return obsFlags.Finish(observer)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		os.Exit(1)
	}
}

// experiments lists every single -experiment value in run order. "all"
// runs the first paperExperiments (the paper's figures and tables),
// "extended" the rest.
var experiments = []string{"fig5", "fig6", "fig7", "fig8", "fig9", "table1", "table2", "sensd", "sensepr", "ablation", "fth", "numa"}

const paperExperiments = 7

func run(w io.Writer, exp, scale string, fth int64, schedName string, workers int) error {
	sched, err := core.SchedulerByName(schedName)
	if err != nil {
		return err
	}
	sched = core.WithDecisionLog(sched, observer.D())
	smallFTh := int64(2000)
	if fth != 0 {
		smallFTh = fth
	}
	switch exp {
	case "all", "extended":
		group := experiments[:paperExperiments]
		if exp == "extended" {
			group = experiments[paperExperiments:]
		}
		for _, e := range group {
			if err := run(w, e, scale, fth, schedName, workers); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	case "sensd":
		ws, err := workloads(smallFTh, true, workers)
		if err != nil {
			return err
		}
		cells, err := core.SensD(ws, sched, 4, []int{2, 4, 8, 16, 32, 0})
		if err != nil {
			return err
		}
		printGrid(w, fmt.Sprintf("Sensitivity to d (§5.4): %s, k=4, unlimited local memory, speedup vs naive", sched.Name()), 8, cells)
		return nil
	case "sensepr":
		ws, err := workloads(smallFTh, true, workers)
		if err != nil {
			return err
		}
		cells, err := core.SensEPR(ws, sched, 4, []int{1, 2, 4, 8, 0})
		if err != nil {
			return err
		}
		printGrid(w, fmt.Sprintf("Sensitivity to EPR distribution bandwidth (§2.3): %s, k=4, speedup vs naive", sched.Name()), 8, cells)
		return nil
	case "ablation":
		ws, err := workloads(smallFTh, true, workers)
		if err != nil {
			return err
		}
		for _, a := range []struct {
			title string
			sweep func([]core.Workload, int) ([]core.Cell, error)
		}{
			{"LPFS option ablation (k=4, unlimited local memory, speedup vs naive)", core.AblationLPFS},
			{"RCP weight ablation (k=4, unlimited local memory, speedup vs naive)", core.AblationRCP},
			{"Movement accounting ablation (LPFS, k=4, no local memory)", func(ws []core.Workload, k int) ([]core.Cell, error) {
				return core.AblationComm(ws, sched, k)
			}},
		} {
			cells, err := a.sweep(ws, 4)
			if err != nil {
				return err
			}
			printGrid(w, a.title, 20, cells)
		}
		return nil
	case "fth":
		var srcs []core.SourceWorkload
		for _, b := range bench.AllSmall() {
			p := b.Pipeline
			p.Obs = observer
			srcs = append(srcs, core.SourceWorkload{Name: b.Name, Source: b.Source, Pipeline: p})
		}
		rows, err := core.SweepFTh(srcs, sched, 4, []int64{100, 500, 2000, 50000}, workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Flattening threshold sweep (§3.1.1): %s, k=4, speedup vs naive\n", sched.Name())
		fmt.Fprintf(w, "%-10s %-9s %8s %8s %8s %10s\n", "benchmark", "FTh", "modules", "leaves", "speedup", "analysis")
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %-9d %8d %8d %8.2f %8dms\n", r.Name, r.FTh, r.Modules, r.Leaves, r.Speedup, r.AnalysisMS)
		}
		return nil
	case "numa":
		return numaExperiment(w, smallFTh, sched, workers)
	case "fig5":
		return fig5(w, scale, fth)
	case "fig6":
		ws, err := workloads(smallFTh, true, workers)
		if err != nil {
			return err
		}
		rows, err := core.Fig6(ws)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Figure 6: speedup over sequential execution (zero-cost communication)")
		fmt.Fprintf(w, "%-10s %-16s %8s %8s %8s %8s %8s\n", "benchmark", "params", "rcp k=2", "rcp k=4", "lpfs k=2", "lpfs k=4", "cp")
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %-16s %8.2f %8.2f %8.2f %8.2f %8.2f\n",
				r.Name, r.Params, r.RCP2, r.RCP4, r.LPFS2, r.LPFS4, r.CP)
		}
		return nil
	case "fig7":
		ws, err := workloads(smallFTh, true, workers)
		if err != nil {
			return err
		}
		rows, err := core.Fig7(ws)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Figure 7: speedup over sequential naive-movement execution (communication-aware)")
		fmt.Fprintf(w, "%-10s %-16s %8s %8s %8s %8s\n", "benchmark", "params", "rcp k=2", "rcp k=4", "lpfs k=2", "lpfs k=4")
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %-16s %8.2f %8.2f %8.2f %8.2f\n",
				r.Name, r.Params, r.RCP2, r.RCP4, r.LPFS2, r.LPFS4)
		}
		return nil
	case "fig8":
		ws, err := workloads(smallFTh, true, workers)
		if err != nil {
			return err
		}
		rows, err := core.Fig8(ws)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Figure 8: speedup over naive movement with local memory, Multi-SIMD(4,inf)")
		fmt.Fprintf(w, "%-10s %-6s %-5s %8s %8s %8s %8s\n", "benchmark", "Q", "sched", "none", "Q/4", "Q/2", "inf")
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %-6d %-5s %8.2f %8.2f %8.2f %8.2f\n",
				r.Name, r.Q, "rcp", r.RCP[0], r.RCP[1], r.RCP[2], r.RCP[3])
			fmt.Fprintf(w, "%-10s %-6s %-5s %8.2f %8.2f %8.2f %8.2f\n",
				"", "", "lpfs", r.LPFS[0], r.LPFS[1], r.LPFS[2], r.LPFS[3])
		}
		return nil
	case "fig9":
		// A dedicated Shor's instance with a wider exponent register:
		// the k-sensitivity of §5.4 comes from the inverse QFT's many
		// distinct-angle rotation blackboxes.
		shors, err := buildWorkload(bench.ShorsSized(4, 16), smallFTh, true, workers)
		if err != nil {
			return err
		}
		cells, err := core.Fig9(shors)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Figure 9: Shor's speedup over naive movement vs k (with local memory)")
		fmt.Fprintf(w, "%-6s %-6s %8s\n", "sched", "k", "speedup")
		for _, c := range cells {
			fmt.Fprintf(w, "%-6s %-6d %8.2f\n", c.Opts.Scheduler.Name(), c.Opts.K, c.SpeedupVsNaive())
		}
		return nil
	case "table1":
		ws, err := scaleWorkloads(scale, 0, false)
		if err != nil {
			return err
		}
		rows, err := core.Table1(ws)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Table 1: minimum qubits Q (sequential execution, maximal ancilla reuse)")
		fmt.Fprintf(w, "%-10s %-16s %10s\n", "benchmark", "params", "Q")
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %-16s %10d\n", r.Name, r.Params, r.Q)
		}
		return nil
	case "table2":
		const rotations = 8
		cells, err := core.Table2(rotations, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Table 2: parallel rotations serialize after decomposition unless k grows")
		fmt.Fprintf(w, "%d data-parallel Rz gates on distinct qubits:\n", rotations)
		fmt.Fprintf(w, "%-6s %12s\n", "k", "steps")
		for _, c := range cells {
			fmt.Fprintf(w, "%-6d %12d\n", c.Opts.K, c.ZeroCommSteps)
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q (want all, extended, %s)", exp, strings.Join(experiments, ", "))
}

// printGrid renders sweep cells as one row per benchmark and one
// speedup-vs-naive column per variant, headed by the variant's name.
func printGrid(w io.Writer, title string, width int, cells []core.Cell) {
	fmt.Fprintln(w, title)
	n := 0 // variants per benchmark
	for n < len(cells) && cells[n].Name == cells[0].Name {
		n++
	}
	fmt.Fprintf(w, "%-10s", "benchmark")
	for _, c := range cells[:n] {
		fmt.Fprintf(w, " %*s", width, c.Variant)
	}
	for i := range cells {
		if i%n == 0 {
			fmt.Fprintf(w, "\n%-10s", cells[i].Name)
		}
		fmt.Fprintf(w, " %*.2f", width, cells[i].SpeedupVsNaive())
	}
	fmt.Fprintln(w)
}

// numaExperiment compares qubit-to-bank mapping policies on each
// benchmark's largest leaf (the paper's §2.3 future-work direction:
// distributed global memory needs a mapping algorithm).
func numaExperiment(w io.Writer, fth int64, sched core.Scheduler, workers int) error {
	ws, err := workloads(fth, true, workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Distributed global memory (§2.3 future work): largest leaf, %s k=4, 2 banks\n", sched.Name())
	fmt.Fprintf(w, "%-10s %10s %12s %12s %12s %12s\n",
		"benchmark", "teleports", "rr far%", "affinity far%", "rr cycles", "aff cycles")
	for _, wl := range ws {
		est, err := resource.New(wl.Prog)
		if err != nil {
			return err
		}
		var biggest *ir.Module
		var size int64
		for _, name := range est.Reachable() {
			m := wl.Prog.Modules[name]
			if m.IsLeaf() {
				if sz := m.MaterializedSize(); sz > size {
					size, biggest = sz, m
				}
			}
		}
		if biggest == nil {
			continue
		}
		mat, g, err := core.MaterializeLeaf(biggest)
		if err != nil {
			return err
		}
		fine, err := sched.Schedule(mat, g, 4, 0)
		if err != nil {
			return err
		}
		res, err := comm.Analyze(fine, comm.Options{})
		if err != nil {
			return err
		}
		cfg := numa.Config{Banks: 2}
		rr, err := numa.Analyze(fine, res, numa.RoundRobin(mat.TotalSlots(), 2), cfg)
		if err != nil {
			return err
		}
		aff, err := numa.Analyze(fine, res, numa.AffinityMoves(fine, res, 2), cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %10d %11.1f%% %12.1f%% %12d %12d\n",
			wl.Name, res.GlobalMoves, 100*rr.FarFraction(), 100*aff.FarFraction(), rr.Cycles, aff.Cycles)
	}
	return nil
}

func fig5(w io.Writer, scale string, fth int64) error {
	// Fig. 5 characterizes initial modularity, so skip flattening.
	ws, err := scaleWorkloads(scale, 0, false)
	if err != nil {
		return err
	}
	useFTh := fth
	if useFTh == 0 {
		if scale == "paper" {
			useFTh = 2_000_000
		} else {
			useFTh = 2000
		}
	}
	rows, err := core.Fig5(ws, useFTh)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 5: %% of modules per gate-count range (FTh = %d)\n", useFTh)
	header := []string{"range"}
	for _, r := range rows {
		header = append(header, r.Name)
	}
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for bi, b := range resource.Fig5Buckets {
		cells := []string{b.Label}
		for _, r := range rows {
			cells = append(cells, strconv.FormatFloat(r.Percent[bi], 'f', 1, 64))
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	fmt.Fprintln(w, "flattenable% (modules at or under FTh):")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %6.1f%%\n", r.Name, r.FlattenedPct)
	}
	return nil
}

// workloadMemo holds built workloads — and, crucially, their warm
// EvalCaches — across the experiments of one qbench run, so -experiment
// all compiles each benchmark once and later figures reuse the leaf
// characterizations of earlier ones (fig7 re-runs fig6's evaluations;
// fig8 only re-runs comm.Analyze over fig6's schedules).
var workloadMemo = map[string][]core.Workload{}

func workloads(fth int64, flatten bool, workers int) ([]core.Workload, error) {
	key := fmt.Sprintf("%d|%t|%d", fth, flatten, workers)
	if ws, ok := workloadMemo[key]; ok {
		return ws, nil
	}
	var ws []core.Workload
	for _, b := range bench.AllSmall() {
		w, err := buildWorkload(b, fth, flatten, workers)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	workloadMemo[key] = ws
	return ws, nil
}

func scaleWorkloads(scale string, fth int64, flatten bool) ([]core.Workload, error) {
	set := bench.AllSmall()
	if scale == "paper" {
		set = bench.All()
	}
	var ws []core.Workload
	for _, b := range set {
		w, err := buildWorkload(b, fth, flatten, 0)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func buildWorkload(b bench.Benchmark, fth int64, flatten bool, workers int) (core.Workload, error) {
	opts := b.Pipeline
	if fth != 0 {
		opts.FTh = fth
	}
	opts.SkipFlatten = !flatten
	p, err := core.Build(b.Source, opts)
	if err != nil {
		return core.Workload{}, fmt.Errorf("%s: %w", b.Name, err)
	}
	return core.Workload{
		Name: b.Name, Params: b.Params, Prog: p,
		Cache: core.NewEvalCache(), Workers: workers, Obs: observer,
	}, nil
}

// perfRecord is one benchmark's machine-readable performance summary,
// written as BENCH_<name>.json by -perf-out for CI trend tracking.
type perfRecord struct {
	Benchmark      string          `json:"benchmark"`
	Params         string          `json:"params"`
	Scheduler      string          `json:"scheduler"`
	K              int             `json:"k"`
	ColdWallMS     float64         `json:"cold_wall_ms"`
	WarmWallMS     float64         `json:"warm_wall_ms"`
	DiskWarmWallMS float64         `json:"disk_warm_wall_ms"`
	DiskHits       int64           `json:"disk_hits"`
	CacheHitRate   float64         `json:"cache_hit_rate"`
	CacheStats     core.CacheStats `json:"cache_stats"`
	PeakGoroutines int64           `json:"peak_goroutines"`
	SpeedupVsNaive float64         `json:"speedup_vs_naive"`
	GoMaxProcs     int             `json:"gomaxprocs"`
	Workers        int             `json:"workers"`
}

// measureDiskWarm prices the warm-restart path: populate a persistent
// store with one untimed evaluation, close the cache (simulating
// process exit), reopen the same directory with cold memory, and time
// an evaluation that must be served entirely from the disk layer. The
// timed cold/warm pair stays memory-only so committed trajectories are
// unaffected; this measurement rides alongside it.
func measureDiskWarm(b bench.Benchmark, sched core.Scheduler, fth int64, workers int) (float64, int64, error) {
	dir, err := os.MkdirTemp("", "qbench-cas-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)

	w, err := buildWorkload(b, fth, true, workers)
	if err != nil {
		return 0, 0, err
	}
	warmCache, err := core.OpenEvalCache(core.CacheConfig{Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	opts := core.EvalOptions{Scheduler: sched, K: 4, Cache: warmCache, Workers: w.Workers}
	if _, err := core.Evaluate(w.Prog, opts); err != nil {
		warmCache.Close()
		return 0, 0, fmt.Errorf("%s disk populate: %w", b.Name, err)
	}
	warmCache.Close()

	coldProc, err := core.OpenEvalCache(core.CacheConfig{Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	defer coldProc.Close()
	opts.Cache = coldProc
	start := time.Now()
	if _, err := core.Evaluate(w.Prog, opts); err != nil {
		return 0, 0, fmt.Errorf("%s disk warm: %w", b.Name, err)
	}
	wall := float64(time.Since(start).Microseconds()) / 1000
	return wall, coldProc.Stats().DiskHits, nil
}

// writeSeedCorpus evaluates every gated benchmark through the daemon's
// request defaults (lpfs, k=4, d unlimited, fth=2000, default movement
// accounting) into a persistent result store at dir. Because the cache
// keys are derived from the same Config path qschedd uses, a daemon
// started with -cache-preload pointed here serves those requests from
// the seed store on its very first compile. Progress lines go to w.
func writeSeedCorpus(w io.Writer, dir string) error {
	cache, err := core.OpenEvalCache(core.CacheConfig{Dir: dir})
	if err != nil {
		return err
	}
	defer cache.Close()
	for _, b := range bench.Gated() {
		cfg := request.Config{Bench: b.Name}.WithDefaults()
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		p, err := cfg.Build(nil)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		eopts, err := cfg.EvalOptions()
		if err != nil {
			return err
		}
		eopts.Cache = cache
		if _, err := core.Evaluate(p, eopts); err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		st := cache.Stats()
		fmt.Fprintf(w, "%-10s seeded  (%d records, %.1f KiB on disk)\n",
			b.Name, st.DiskEntries, float64(st.DiskBytes)/1024)
	}
	return nil
}

// regressionLimit flags a fresh cold wall time as a regression when it
// exceeds the committed baseline by more than 25%, with an absolute
// 50ms slack so millisecond-scale benchmarks don't trip on scheduler
// jitter from a noisy CI host.
func regressionLimit(baselineMS float64) float64 {
	return baselineMS*1.25 + 50
}

// checkAgainst compares a fresh record with the committed baseline in
// dir, gating both the cold and warm wall times with the same 25%+50ms
// slack. A missing baseline file is not an error — new benchmarks join
// the trajectory on their first committed record.
func checkAgainst(dir string, rec perfRecord) error {
	path := filepath.Join(dir, "BENCH_"+rec.Benchmark+".json")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		fmt.Printf("%-10s no baseline at %s, skipping check\n", rec.Benchmark, path)
		return nil
	}
	if err != nil {
		return err
	}
	var base perfRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if limit := regressionLimit(base.ColdWallMS); rec.ColdWallMS > limit {
		return fmt.Errorf("%s: cold wall time %.1fms exceeds %.1fms (baseline %.1fms + 25%% + 50ms slack)",
			rec.Benchmark, rec.ColdWallMS, limit, base.ColdWallMS)
	}
	if limit := regressionLimit(base.WarmWallMS); rec.WarmWallMS > limit {
		return fmt.Errorf("%s: warm wall time %.1fms exceeds %.1fms (baseline %.1fms + 25%% + 50ms slack)",
			rec.Benchmark, rec.WarmWallMS, limit, base.WarmWallMS)
	}
	return nil
}

// checkReportAgainst diffs a fresh schedule report with the committed
// baseline in dir, printing the module/region/step attribution of any
// movement. Only a schedule regression (longer comm-expanded runtime or
// longer zero-comm schedule) is an error; improvements and neutral
// shuffles are narrated but pass. A missing baseline passes like
// checkAgainst.
func checkReportAgainst(dir string, rec *report.Report) error {
	path := filepath.Join(dir, "REPORT_"+rec.Benchmark+".json")
	base, err := report.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		fmt.Printf("%-10s no baseline report at %s, skipping check\n", rec.Benchmark, path)
		return nil
	}
	if err != nil {
		return err
	}
	d := report.Diff(base, rec)
	if err := d.WriteText(os.Stdout); err != nil {
		return err
	}
	if d.Regression {
		var buf strings.Builder
		if err := d.WriteText(&buf); err != nil {
			return err
		}
		return fmt.Errorf("schedule regression vs %s:\n%s", path, buf.String())
	}
	return nil
}

// writePerfRecords evaluates each gated benchmark (the eight small
// presets plus the extended QAOA/QFT/QPE workloads) twice at k=4 — a cold
// run that fills the EvalCache and a warm run that should hit it — and
// writes the wall times, cache behavior, worker-pool peak and host
// parallelism (GOMAXPROCS and the effective worker count) per
// benchmark, plus a REPORT_<name>.json schedule report
// from a final, untimed profiled run (profiling bypasses the warm
// comm-cache fast path, so it stays out of the timed pair to keep wall
// times comparable with committed baselines). Each benchmark gets a fresh cache and
// metrics registry so records are independent. With a non-empty against
// / reportAgainst dir, every record is also checked for wall-time /
// schedule regressions; all benchmarks still run and write records
// before the first regression is reported.
func writePerfRecords(dir, against, reportAgainst, schedName string, fth int64, workers int) error {
	sched, err := core.SchedulerByName(schedName)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if fth == 0 {
		fth = 2000
	}
	var regressions []error
	for _, b := range bench.Gated() {
		w, err := buildWorkload(b, fth, true, workers)
		if err != nil {
			return err
		}
		reg := obs.NewRegistry()
		opts := core.EvalOptions{
			Scheduler: sched, K: 4,
			Cache: w.Cache, Workers: w.Workers,
			Obs: &obs.Observer{Metrics: reg},
		}
		start := time.Now()
		m, err := core.Evaluate(w.Prog, opts)
		if err != nil {
			return fmt.Errorf("%s cold: %w", b.Name, err)
		}
		cold := time.Since(start)
		afterCold := w.Cache.Stats()
		start = time.Now()
		if _, err := core.Evaluate(w.Prog, opts); err != nil {
			return fmt.Errorf("%s warm: %w", b.Name, err)
		}
		warm := time.Since(start)
		warmStats := w.Cache.Stats().Sub(afterCold)
		effWorkers := workers
		if effWorkers == 0 {
			effWorkers = runtime.GOMAXPROCS(0)
		}
		diskWarm, diskHits, err := measureDiskWarm(b, sched, fth, workers)
		if err != nil {
			return err
		}
		rec := perfRecord{
			Benchmark: b.Name, Params: b.Params,
			Scheduler: sched.Name(), K: 4,
			ColdWallMS:     float64(cold.Microseconds()) / 1000,
			WarmWallMS:     float64(warm.Microseconds()) / 1000,
			DiskWarmWallMS: diskWarm,
			DiskHits:       diskHits,
			CacheHitRate:   warmStats.CommHitRate(),
			CacheStats:     w.Cache.Stats(),
			PeakGoroutines: reg.Gauge("engine.workers.peak").Value(),
			SpeedupVsNaive: m.SpeedupVsNaive(),
			GoMaxProcs:     runtime.GOMAXPROCS(0),
			Workers:        effWorkers,
		}
		data, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "BENCH_"+b.Name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("%-10s cold %8.1fms  warm %8.1fms  disk-warm %8.1fms  hit rate %5.1f%%  -> %s\n",
			b.Name, rec.ColdWallMS, rec.WarmWallMS, rec.DiskWarmWallMS, 100*rec.CacheHitRate, path)
		if against != "" {
			if err := checkAgainst(against, rec); err != nil {
				regressions = append(regressions, err)
			}
			// A fresh cold process answering from the disk layer must land
			// near the in-memory warm path, not near the true cold path —
			// the same 50ms absolute slack absorbs host jitter.
			if limit := 2*rec.WarmWallMS + 50; rec.DiskWarmWallMS > limit {
				regressions = append(regressions, fmt.Errorf(
					"%s: disk-warm wall time %.1fms exceeds %.1fms (2x warm %.1fms + 50ms slack)",
					b.Name, rec.DiskWarmWallMS, limit, rec.WarmWallMS))
			}
		}

		popts := opts
		popts.Profile = report.NewCollector()
		pm, err := core.Evaluate(w.Prog, popts)
		if err != nil {
			return fmt.Errorf("%s profile: %w", b.Name, err)
		}
		sr := core.BuildReport(popts.Profile, b.Name, pm, popts)
		rpath := filepath.Join(dir, "REPORT_"+b.Name+".json")
		if err := sr.WriteJSONFile(rpath); err != nil {
			return err
		}
		if reportAgainst != "" {
			if err := checkReportAgainst(reportAgainst, sr); err != nil {
				regressions = append(regressions, err)
			}
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("regression vs committed baselines: %w", errors.Join(regressions...))
	}
	return nil
}
