// Package multisimd's benchmark harness regenerates every table and
// figure of the paper's evaluation as testing.B benchmarks (the cmd/qbench
// tool prints the same data as human-readable tables):
//
//	BenchmarkFig5Histogram    — module gate-count histograms + FTh
//	BenchmarkFig6Parallelism  — RCP/LPFS speedup vs sequential, k=2,4
//	BenchmarkFig7CommAware    — speedup vs naive movement, k=2,4
//	BenchmarkFig8LocalMemory  — scratchpad capacity sweep at k=4
//	BenchmarkFig9ShorsK       — Shor's k-sensitivity with local memory
//	BenchmarkTable1MinQubits  — Q per benchmark
//	BenchmarkTable2Rotations  — parallel-rotation serialization vs k
//
// Speedups are attached to the benchmark output via ReportMetric, so
// `go test -bench . -benchmem` prints the paper's series alongside the
// harness's own runtime costs.
package multisimd

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/resource"
	"github.com/scaffold-go/multisimd/internal/sim"
)

const benchFTh = 2000

var (
	workloadOnce     sync.Once
	workloadFlat     []core.Workload
	workloadUnflat   []core.Workload
	workloadBuildErr error
)

func workloads(b *testing.B) (flat, unflat []core.Workload) {
	workloadOnce.Do(func() {
		for _, w := range bench.AllSmall() {
			opts := w.Pipeline
			opts.FTh = benchFTh
			p, err := core.Build(w.Source, opts)
			if err != nil {
				workloadBuildErr = fmt.Errorf("%s: %w", w.Name, err)
				return
			}
			workloadFlat = append(workloadFlat, core.Workload{Name: w.Name, Params: w.Params, Prog: p})
			opts.SkipFlatten = true
			u, err := core.Build(w.Source, opts)
			if err != nil {
				workloadBuildErr = fmt.Errorf("%s: %w", w.Name, err)
				return
			}
			workloadUnflat = append(workloadUnflat, core.Workload{Name: w.Name, Params: w.Params, Prog: u})
		}
	})
	if workloadBuildErr != nil {
		b.Fatal(workloadBuildErr)
	}
	return workloadFlat, workloadUnflat
}

func metricName(parts ...string) string { return strings.Join(parts, "_") }

// BenchmarkFig5Histogram regenerates Fig. 5: the percentage of modules
// per gate-count bucket and the fraction flattenable at FTh.
func BenchmarkFig5Histogram(b *testing.B) {
	_, unflat := workloads(b)
	var rows []core.Fig5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = core.Fig5(unflat, benchFTh)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.FlattenedPct, metricName(r.Name, "flattenable_pct"))
	}
}

// BenchmarkFig6Parallelism regenerates Fig. 6 for every benchmark.
func BenchmarkFig6Parallelism(b *testing.B) {
	flat, _ := workloads(b)
	for _, w := range flat {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var rows []core.Fig6Row
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = core.Fig6([]core.Workload{w})
				if err != nil {
					b.Fatal(err)
				}
			}
			r := rows[0]
			b.ReportMetric(r.RCP2, "rcp_k2_x")
			b.ReportMetric(r.RCP4, "rcp_k4_x")
			b.ReportMetric(r.LPFS2, "lpfs_k2_x")
			b.ReportMetric(r.LPFS4, "lpfs_k4_x")
			b.ReportMetric(r.CP, "cp_x")
		})
	}
}

// BenchmarkFig7CommAware regenerates Fig. 7 for every benchmark.
func BenchmarkFig7CommAware(b *testing.B) {
	flat, _ := workloads(b)
	for _, w := range flat {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var rows []core.Fig7Row
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = core.Fig7([]core.Workload{w})
				if err != nil {
					b.Fatal(err)
				}
			}
			r := rows[0]
			b.ReportMetric(r.RCP2, "rcp_k2_x")
			b.ReportMetric(r.RCP4, "rcp_k4_x")
			b.ReportMetric(r.LPFS2, "lpfs_k2_x")
			b.ReportMetric(r.LPFS4, "lpfs_k4_x")
		})
	}
}

// BenchmarkFig8LocalMemory regenerates Fig. 8: the scratchpad sweep on
// Multi-SIMD(4, inf).
func BenchmarkFig8LocalMemory(b *testing.B) {
	flat, _ := workloads(b)
	for _, w := range flat {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var rows []core.Fig8Row
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = core.Fig8([]core.Workload{w})
				if err != nil {
					b.Fatal(err)
				}
			}
			r := rows[0]
			labels := []string{"none", "q4", "q2", "inf"}
			for ci, lbl := range labels {
				b.ReportMetric(r.RCP[ci], metricName("rcp", lbl, "x"))
				b.ReportMetric(r.LPFS[ci], metricName("lpfs", lbl, "x"))
			}
		})
	}
}

// BenchmarkFig9ShorsK regenerates Fig. 9: Shor's speedup as k grows,
// with unlimited local memory.
func BenchmarkFig9ShorsK(b *testing.B) {
	w, err := buildFig9Workload()
	if err != nil {
		b.Fatal(err)
	}
	var cells []core.Cell
	for i := 0; i < b.N; i++ {
		cells, err = core.Fig9(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		b.ReportMetric(c.SpeedupVsNaive(), metricName(c.Opts.Scheduler.Name(), fmt.Sprintf("k%d", c.Opts.K), "x"))
	}
}

func buildFig9Workload() (core.Workload, error) {
	sb := bench.ShorsSized(4, 16)
	opts := sb.Pipeline
	opts.FTh = benchFTh
	p, err := core.Build(sb.Source, opts)
	if err != nil {
		return core.Workload{}, err
	}
	return core.Workload{Name: sb.Name, Params: sb.Params, Prog: p}, nil
}

// BenchmarkTable1MinQubits regenerates Table 1: Q per benchmark.
func BenchmarkTable1MinQubits(b *testing.B) {
	_, unflat := workloads(b)
	var rows []core.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = core.Table1(unflat)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Q), metricName(r.Name, "Q"))
	}
}

// BenchmarkTable2Rotations regenerates Table 2: n data-parallel
// rotations serialize after decomposition unless k grows.
func BenchmarkTable2Rotations(b *testing.B) {
	var cells []core.Cell
	var err error
	for i := 0; i < b.N; i++ {
		cells, err = core.Table2(8, []int{1, 2, 4, 8}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		b.ReportMetric(float64(c.ZeroCommSteps), fmt.Sprintf("steps_k%d", c.Opts.K))
	}
}

// --- Evaluation-engine benchmarks: worker pool and cache. ---

// engineSweep runs one experiment sweep with the given worker count and
// cache temperature. Cold runs leave Workload.Cache nil, the seed
// behavior (each Evaluate dedupes internally but shares nothing); warm
// runs pre-populate one shared cache before the timer starts.
func engineSweep(b *testing.B, workers int, warm bool, sweep func([]core.Workload) error) {
	flat, _ := workloads(b)
	ws := make([]core.Workload, len(flat))
	copy(ws, flat)
	for j := range ws {
		ws[j].Workers = workers
	}
	if warm {
		cache := core.NewEvalCache()
		for j := range ws {
			ws[j].Cache = cache
		}
		if err := sweep(ws); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sweep(ws); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkEngineFig6 measures the fig6 sweep (both schedulers, k=2,4,
// all benchmarks) serial vs 8-worker pool vs warm-cache. The pool's
// wall-clock win scales with available cores (workers_8 on a single-CPU
// host measures only the pool's overhead — GOMAXPROCS is reported so
// results read correctly either way); the cache win is core-independent.
func BenchmarkEngineFig6(b *testing.B) {
	sweep := func(ws []core.Workload) error { _, err := core.Fig6(ws); return err }
	b.Run("serial_cold", func(b *testing.B) { engineSweep(b, 1, false, sweep) })
	b.Run("workers8_cold", func(b *testing.B) { engineSweep(b, 8, false, sweep) })
	b.Run("workers8_warm", func(b *testing.B) { engineSweep(b, 8, true, sweep) })
}

// BenchmarkEngineFig8 measures the fig8 local-memory sweep (8 configs
// per benchmark sharing 2 schedule sets) serial vs 8-worker pool vs
// warm-cache.
func BenchmarkEngineFig8(b *testing.B) {
	sweep := func(ws []core.Workload) error { _, err := core.Fig8(ws); return err }
	b.Run("serial_cold", func(b *testing.B) { engineSweep(b, 1, false, sweep) })
	b.Run("workers8_cold", func(b *testing.B) { engineSweep(b, 8, false, sweep) })
	b.Run("workers8_warm", func(b *testing.B) { engineSweep(b, 8, true, sweep) })
}

// BenchmarkPaperSweepOp measures one op of perfbench's paper-sweep
// workload: build one gated benchmark (SHA-1 at FTh 2000), then run
// Figs. 6, 7 and 8 on a fresh cache with one engine worker per CPU.
func BenchmarkPaperSweepOp(b *testing.B) {
	bm, ok := bench.ByName("SHA-1")
	if !ok {
		b.Fatal("no SHA-1 benchmark")
	}
	opts := bm.Pipeline
	opts.FTh = benchFTh
	b.ReportAllocs()
	var f8 []core.Fig8Row
	for i := 0; i < b.N; i++ {
		p, err := core.Build(bm.Source, opts)
		if err != nil {
			b.Fatal(err)
		}
		ws := []core.Workload{{Name: bm.Name, Params: bm.Params, Prog: p, Cache: core.NewEvalCache()}}
		if _, err := core.Fig6(ws); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Fig7(ws); err != nil {
			b.Fatal(err)
		}
		if f8, err = core.Fig8(ws); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f8[0].LPFS[3], "lpfs_inf_x")
}

// BenchmarkPaperSweepPass measures one whole pass of perfbench's
// paper-sweep workload: every gated benchmark, each built at FTh 2000
// and run through Figs. 6, 7 and 8 on a fresh cache with one engine
// worker per CPU. It reproduces the workload's op mix in process.
func BenchmarkPaperSweepPass(b *testing.B) {
	gated := bench.Gated()
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, bm := range gated {
			opts := bm.Pipeline
			opts.FTh = benchFTh
			p, err := core.Build(bm.Source, opts)
			if err != nil {
				b.Fatalf("%s: %v", bm.Name, err)
			}
			ws := []core.Workload{{Name: bm.Name, Params: bm.Params, Prog: p, Cache: core.NewEvalCache(), Workers: workers}}
			if _, err := core.Fig6(ws); err != nil {
				b.Fatalf("%s: %v", bm.Name, err)
			}
			if _, err := core.Fig7(ws); err != nil {
				b.Fatalf("%s: %v", bm.Name, err)
			}
			if _, err := core.Fig8(ws); err != nil {
				b.Fatalf("%s: %v", bm.Name, err)
			}
		}
	}
	b.ReportMetric(float64(len(gated)), "benchmarks/pass")
}

// --- Toolflow micro-benchmarks: the compiler itself under load. ---

// BenchmarkCompileSHA1 measures the full pipeline on the scaled SHA-1.
func BenchmarkCompileSHA1(b *testing.B) {
	src := bench.SHA1Sized(6, 8, 8, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := src.Pipeline
		opts.FTh = benchFTh
		if _, err := core.Build(src.Source, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRCPScheduler and BenchmarkLPFSScheduler measure fine-grained
// scheduling of one materialized SHA-1 leaf.
func schedulerLeaf(b *testing.B) (*dag.Graph, func()) {
	flat, _ := workloads(b)
	var prog = flat[5].Prog // SHA-1
	est, err := resource.New(prog)
	if err != nil {
		b.Fatal(err)
	}
	var biggest string
	var size int64
	for _, name := range est.Reachable() {
		m := prog.Modules[name]
		if m.IsLeaf() {
			if s := m.MaterializedSize(); s > size {
				size, biggest = s, name
			}
		}
	}
	_, g, err := core.MaterializeLeaf(prog.Modules[biggest])
	if err != nil {
		b.Fatal(err)
	}
	return g, func() { b.SetBytes(size) }
}

func BenchmarkRCPScheduler(b *testing.B) {
	g, _ := schedulerLeaf(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rcp.Schedule(g.M, g, rcp.Options{K: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.Len()), "leaf_ops")
}

func BenchmarkLPFSScheduler(b *testing.B) {
	g, _ := schedulerLeaf(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lpfs.Schedule(g.M, g, lpfs.Options{K: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.Len()), "leaf_ops")
}

// BenchmarkCommAnalysis measures the movement pass over an LPFS schedule.
func BenchmarkCommAnalysis(b *testing.B) {
	g, _ := schedulerLeaf(b)
	s, err := lpfs.Schedule(g.M, g, lpfs.Options{K: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comm.Analyze(s, comm.Options{LocalCapacity: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures state-vector gate throughput at 16 qubits.
func BenchmarkSimulator(b *testing.B) {
	st, err := sim.NewState(16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Apply(2 /* Z */, 0, i%16); err != nil {
			b.Fatal(err)
		}
		if err := st.Apply(10 /* CNOT */, 0, i%16, (i+1)%16); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extended studies (DESIGN.md: sens-d, sens-epr, ablation, fth). ---

// BenchmarkSensD reproduces §5.4's claim that d below 32 causes only
// marginal changes.
func BenchmarkSensD(b *testing.B) {
	flat, _ := workloads(b)
	var cells []core.Cell
	var err error
	for i := 0; i < b.N; i++ {
		cells, err = core.SensD(flat, core.LPFS, 4, []int{2, 8, 32, 0})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		d := fmt.Sprintf("d%d", c.Opts.D)
		if c.Opts.D == 0 {
			d = "dinf"
		}
		b.ReportMetric(c.SpeedupVsNaive(), metricName(c.Name, d, "x"))
	}
}

// BenchmarkSensEPR sweeps the EPR distribution bandwidth (§2.3).
func BenchmarkSensEPR(b *testing.B) {
	flat, _ := workloads(b)
	var cells []core.Cell
	var err error
	for i := 0; i < b.N; i++ {
		cells, err = core.SensEPR(flat, core.LPFS, 4, []int{1, 4, 0})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		bw := fmt.Sprintf("bw%d", c.Opts.Comm.EPRBandwidth)
		if c.Opts.Comm.EPRBandwidth == 0 {
			bw = "bwinf"
		}
		b.ReportMetric(c.SpeedupVsNaive(), metricName(c.Name, bw, "x"))
	}
}

// BenchmarkAblationLPFS compares LPFS option settings (§4.2).
func BenchmarkAblationLPFS(b *testing.B) {
	flat, _ := workloads(b)
	var cells []core.Cell
	var err error
	for i := 0; i < b.N; i++ {
		cells, err = core.AblationLPFS(flat, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		b.ReportMetric(c.SpeedupVsNaive(), metricName(c.Name, sanitize(c.Variant), "x"))
	}
}

// BenchmarkAblationRCP compares RCP weight settings (§4.1).
func BenchmarkAblationRCP(b *testing.B) {
	flat, _ := workloads(b)
	var cells []core.Cell
	var err error
	for i := 0; i < b.N; i++ {
		cells, err = core.AblationRCP(flat, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		b.ReportMetric(c.SpeedupVsNaive(), metricName(c.Name, sanitize(c.Variant), "x"))
	}
}

// BenchmarkAblationComm compares the masked (§2.3) and strict (§4.4)
// movement accountings.
func BenchmarkAblationComm(b *testing.B) {
	flat, _ := workloads(b)
	var cells []core.Cell
	var err error
	for i := 0; i < b.N; i++ {
		cells, err = core.AblationComm(flat, core.LPFS, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		b.ReportMetric(c.SpeedupVsNaive(), metricName(c.Name, sanitize(c.Variant), "x"))
	}
}

// BenchmarkSweepFTh measures schedule quality across flattening
// thresholds (§3.1.1).
func BenchmarkSweepFTh(b *testing.B) {
	var srcs []core.SourceWorkload
	for _, w := range bench.AllSmall() {
		srcs = append(srcs, core.SourceWorkload{Name: w.Name, Source: w.Source, Pipeline: w.Pipeline})
	}
	var rows []core.FThRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = core.SweepFTh(srcs, core.LPFS, 4, []int64{100, 2000, 50000}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Speedup, metricName(r.Name, fmt.Sprintf("fth%d", r.FTh), "x"))
	}
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '(', ')', '+':
			return '_'
		}
		return r
	}, s)
}
