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
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/numa"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/obscli"
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
	perfOut := flag.String("perf-out", "", "write every committed record of bench/baselines into this `dir` instead of running an experiment: BENCH_<name>.json perf records, REPORT_<name>.json schedule reports and the seed corpus cas/ (request defaults: lpfs, k=4, fth=2000; serve it with qschedd -cache-preload)")
	perfAgainst := flag.String("perf-against", "", "baseline `dir` of committed BENCH_<name>.json records; with -perf-out, fail if any cold or warm wall time exceeds its baseline by more than 25% + 50ms, or any disk-warm wall time exceeds 2x its warm time + 50ms")
	var obsFlags obscli.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	err := func() error {
		var err error
		observer, err = obsFlags.Setup(os.Stderr)
		if err != nil {
			return err
		}
		if *perfOut != "" {
			return perfRecords(*perfOut, *perfAgainst, *schedName, *fth, *workers)
		}
		if *perfAgainst != "" {
			return fmt.Errorf("-perf-against requires -perf-out")
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
		l, err := core.ScheduleLeaf(biggest, sched, 4, 0, comm.Options{})
		if err != nil {
			return err
		}
		cfg := numa.Config{Banks: 2}
		rr, err := numa.Analyze(l.S, l.Comm, numa.RoundRobin(l.S.M.TotalSlots(), 2), cfg)
		if err != nil {
			return err
		}
		aff, err := numa.Analyze(l.S, l.Comm, numa.AffinityMoves(l.S, l.Comm, 2), cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %10d %11.1f%% %12.1f%% %12d %12d\n",
			wl.Name, l.Comm.GlobalMoves, 100*rr.FarFraction(), 100*aff.FarFraction(), rr.Cycles, aff.Cycles)
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
