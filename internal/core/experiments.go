package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/flatten"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/resource"
)

// Workload names one benchmark instance handed to the experiment
// drivers: its compiled program plus identity strings for the reports.
type Workload struct {
	Name   string
	Params string
	Prog   *ir.Program

	// Cache, when non-nil, memoizes leaf characterizations across every
	// Evaluate the drivers run for this workload, so sweeps that revisit
	// a (scheduler, k, d) configuration reuse its schedules and only
	// re-run comm.Analyze when movement options change (fig7 after fig6
	// is fully warm; fig8's capacity sweep reuses one schedule per point
	// and re-analyzes it only until a capacity leaves the scratchpad
	// unbound, whose result every larger capacity of the sweep reuses).
	Cache *EvalCache
	// Workers overrides the engine's leaf-characterization concurrency
	// (0 = GOMAXPROCS, 1 = serial). Results are identical either way.
	Workers int
	// Obs, when non-nil, instruments every Evaluate the drivers run for
	// this workload (spans + metrics; see EvalOptions.Obs).
	Obs *obs.Observer
}

// Cell is one evaluation of an experiment sweep: a workload run under
// one named variant (scheduler, k, d, movement options).
type Cell struct {
	Name    string // workload
	Variant string
	// Opts are the variant's own options, without the workload's
	// Cache, Workers and Obs.
	Opts EvalOptions
	Metrics
}

// variant is one named configuration of a sweep.
type variant struct {
	name string
	opts EvalOptions
}

// sweep is the evaluation loop behind every experiment driver: each
// workload in turn, prepared once, under each variant in order.
func sweep(tag string, ws []Workload, variants []variant) ([]Cell, error) {
	cells := make([]Cell, 0, len(ws)*len(variants))
	for _, w := range ws {
		pp, err := w.prepare(tag)
		if err != nil {
			return nil, err
		}
		c, err := w.evaluate(tag, pp, variants)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c...)
	}
	return cells, nil
}

// prepare does the workload's per-program work once for a sweep.
func (w Workload) prepare(tag string) (*prepared, error) {
	pp, err := prepare(context.TODO(), w.Prog, nil, EvalOptions{Workers: w.Workers}.workers(), w.Obs)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", tag, w.Name, err)
	}
	return pp, nil
}

// evaluate runs each variant in order against the prepared workload,
// with the workload's cache, concurrency and observability stamped onto
// the variant.
func (w Workload) evaluate(tag string, pp *prepared, variants []variant) ([]Cell, error) {
	cells := make([]Cell, 0, len(variants))
	for _, v := range variants {
		o := v.opts
		o.Cache, o.Workers, o.Obs = w.Cache, w.Workers, w.Obs
		m, err := evaluate(context.TODO(), w.Prog, pp, nil, o)
		if err != nil {
			return nil, fmt.Errorf("%s %s %s: %w", tag, w.Name, v.name, err)
		}
		cells = append(cells, Cell{Name: w.Name, Variant: v.name, Opts: v.opts, Metrics: *m})
	}
	return cells, nil
}

// unlimitedLocal is the Fig. 8 "Inf" scratchpad setting.
var unlimitedLocal = comm.Options{LocalCapacity: -1}

// Fig5Row is one benchmark's module gate-count histogram (paper Fig. 5).
type Fig5Row struct {
	Name    string
	Params  string
	Percent []float64 // aligned with resource.Fig5Buckets
	// FlattenedPct is the percentage of modules at or under the FTh used.
	FlattenedPct float64
	FTh          int64
}

// Fig5 computes the histogram of module gate counts for each workload.
// The workloads should be compiled *without* the flattening pass (the
// figure characterizes the initial modularity used to choose FTh).
func Fig5(ws []Workload, fth int64) ([]Fig5Row, error) {
	if fth == 0 {
		fth = flatten.DefaultThreshold
	}
	rows := make([]Fig5Row, 0, len(ws))
	for _, w := range ws {
		est, err := resource.New(w.Prog)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", w.Name, err)
		}
		pct, err := est.Histogram()
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", w.Name, err)
		}
		fp, err := est.FlattenableFraction(fth)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", w.Name, err)
		}
		rows = append(rows, Fig5Row{Name: w.Name, Params: w.Params, Percent: pct, FlattenedPct: fp, FTh: fth})
	}
	return rows, nil
}

// fig67Variants is the scheduler × k grid Figs. 6 and 7 share.
var fig67Variants = []variant{
	{"rcp k=2", EvalOptions{Scheduler: RCP, K: 2}}, {"rcp k=4", EvalOptions{Scheduler: RCP, K: 4}},
	{"lpfs k=2", EvalOptions{Scheduler: LPFS, K: 2}}, {"lpfs k=4", EvalOptions{Scheduler: LPFS, K: 4}},
}

// Fig6Row is one benchmark's parallelism-only speedups (paper Fig. 6):
// RCP and LPFS at k = 2 and 4 against the critical-path bound.
type Fig6Row struct {
	Name, Params string
	RCP2, RCP4   float64
	LPFS2, LPFS4 float64
	CP           float64
}

// Fig6 runs both schedulers at k = 2 and 4 with zero-cost communication.
func Fig6(ws []Workload) ([]Fig6Row, error) {
	cells, err := sweep("fig6", ws, fig67Variants)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, 0, len(ws))
	for i, w := range ws {
		c := cells[i*len(fig67Variants):]
		rows = append(rows, Fig6Row{
			Name: w.Name, Params: w.Params,
			RCP2: c[0].SpeedupVsSeq(), RCP4: c[1].SpeedupVsSeq(),
			LPFS2: c[2].SpeedupVsSeq(), LPFS4: c[3].SpeedupVsSeq(),
			CP: c[3].CPSpeedup(),
		})
	}
	return rows, nil
}

// Fig7Row is one benchmark's communication-aware speedups over the naive
// movement model (paper Fig. 7).
type Fig7Row struct {
	Name, Params string
	RCP2, RCP4   float64
	LPFS2, LPFS4 float64
}

// Fig7 runs both schedulers at k = 2 and 4 with movement accounted and
// no local memories.
func Fig7(ws []Workload) ([]Fig7Row, error) {
	cells, err := sweep("fig7", ws, fig67Variants)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig7Row, 0, len(ws))
	for i, w := range ws {
		c := cells[i*len(fig67Variants):]
		rows = append(rows, Fig7Row{
			Name: w.Name, Params: w.Params,
			RCP2: c[0].SpeedupVsNaive(), RCP4: c[1].SpeedupVsNaive(),
			LPFS2: c[2].SpeedupVsNaive(), LPFS4: c[3].SpeedupVsNaive(),
		})
	}
	return rows, nil
}

// Fig8Row is one benchmark's local-memory study on Multi-SIMD(4,∞)
// (paper Fig. 8): speedups over the naive model with no local memory,
// Q/4, Q/2, and unlimited scratchpads, for both schedulers.
type Fig8Row struct {
	Name, Params string
	Q            int64
	// Indexed: [scheduler][capacity class] with capacity classes
	// None, Q/4, Q/2, Inf.
	RCP  [4]float64
	LPFS [4]float64
}

// Fig8 runs the local-memory sweep at k = 4. The capacities scale with
// each workload's Q, so every workload gets its own variant list.
func Fig8(ws []Workload) ([]Fig8Row, error) {
	rows := make([]Fig8Row, 0, len(ws))
	for _, w := range ws {
		pp, err := w.prepare("fig8")
		if err != nil {
			return nil, err
		}
		q := pp.minQubits
		var vs []variant
		for _, s := range []Scheduler{RCP, LPFS} {
			for _, c := range [4]int{0, int(q / 4), int(q / 2), -1} {
				vs = append(vs, variant{fmt.Sprintf("%s cap=%d", s.Name(), c),
					EvalOptions{Scheduler: s, K: 4, Comm: comm.Options{LocalCapacity: c}}})
			}
		}
		cells, err := w.evaluate("fig8", pp, vs)
		if err != nil {
			return nil, err
		}
		row := Fig8Row{Name: w.Name, Params: w.Params, Q: q}
		for i := range row.RCP {
			row.RCP[i], row.LPFS[i] = cells[i].SpeedupVsNaive(), cells[4+i].SpeedupVsNaive()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig9Ks are the swept region counts. The paper sweeps {8, 16, 32, 128}
// on a 512-bit Shor's whose half-million rotation blackboxes saturate
// hundreds of regions; the scaled-down workload's inverse QFT offers
// proportionally less operation-level parallelism, so the sweep starts
// lower to expose the same rising-then-saturating shape.
var Fig9Ks = []int{2, 4, 8, 16, 32}

// Fig9 sweeps k for one workload (Shor's) with unlimited local memory:
// paper Fig. 9, speedup over the naive model per scheduler and k.
func Fig9(w Workload) ([]Cell, error) {
	var vs []variant
	for _, s := range []Scheduler{RCP, LPFS} {
		for _, k := range Fig9Ks {
			vs = append(vs, variant{fmt.Sprintf("%s k=%d", s.Name(), k), EvalOptions{Scheduler: s, K: k, Comm: unlimitedLocal}})
		}
	}
	return sweep("fig9", []Workload{w}, vs)
}

// Table1Row is one benchmark's minimum qubit count Q (paper Table 1).
type Table1Row struct {
	Name, Params string
	Q            int64
}

// Table1 computes Q for each workload.
func Table1(ws []Workload) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(ws))
	for _, w := range ws {
		est, err := resource.New(w.Prog)
		if err != nil {
			return nil, err
		}
		q, err := est.MinQubits()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{Name: w.Name, Params: w.Params, Q: q})
	}
	return rows, nil
}

// Table2 demonstrates the paper's Table 2: n data-parallel Rz gates with
// distinct angles cannot share a SIMD region once decomposed, so their
// zero-comm schedule (Metrics.ZeroCommSteps) serializes unless k grows.
// It returns one LPFS cell per k, in the order given.
func Table2(n int, ks []int) ([]Cell, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module main() {\n  qbit q[%d];\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  Rz(q[%d], %g);\n", i, 0.1+0.71*float64(i))
	}
	sb.WriteString("}\n")
	prog, err := Build(sb.String(), PipelineOptions{})
	if err != nil {
		return nil, err
	}
	vs := make([]variant, len(ks))
	for i, k := range ks {
		vs[i] = variant{fmt.Sprintf("k=%d", k), EvalOptions{Scheduler: LPFS, K: k}}
	}
	// The k sweep shares every width below max(ks).
	w := Workload{Name: fmt.Sprintf("%d rotations", n), Prog: prog, Cache: NewEvalCache()}
	return sweep("table2", []Workload{w}, vs)
}

// unlimitedLabel names a swept value where 0 means unlimited.
func unlimitedLabel(key string, v int) string {
	if v == 0 {
		return key + "=inf"
	}
	return fmt.Sprintf("%s=%d", key, v)
}

// SensD sweeps the per-region data parallelism d (0 = unlimited) at
// fixed k with unlimited local memory, one variant "d=<d>" per value
// (§5.4: "decreasing [d] to below 32 qubits only causes marginal
// changes").
func SensD(ws []Workload, sched Scheduler, k int, ds []int) ([]Cell, error) {
	vs := make([]variant, len(ds))
	for i, d := range ds {
		vs[i] = variant{unlimitedLabel("d", d), EvalOptions{Scheduler: sched, K: k, D: d, Comm: unlimitedLocal}}
	}
	return sweep("sensd", ws, vs)
}

// SensEPR sweeps the EPR distribution bandwidth (teleports per
// boundary, 0 = unlimited) at fixed k, one variant "bw=<bw>" per value
// (§2.3: finite distribution channels serialize teleport bursts).
func SensEPR(ws []Workload, sched Scheduler, k int, bws []int) ([]Cell, error) {
	vs := make([]variant, len(bws))
	for i, bw := range bws {
		vs[i] = variant{unlimitedLabel("bw", bw), EvalOptions{Scheduler: sched, K: k, Comm: comm.Options{EPRBandwidth: bw}}}
	}
	return sweep("sensepr", ws, vs)
}

// ablation is an ablation variant: scheduler s at k with unlimited
// local memory.
func ablation(name string, s Scheduler, k int) variant {
	return variant{name, EvalOptions{Scheduler: s, K: k, Comm: unlimitedLocal}}
}

// AblationLPFS compares LPFS option settings (§4.2: the paper runs
// l = 1 with SIMD and Refill enabled).
func AblationLPFS(ws []Workload, k int) ([]Cell, error) {
	return sweep("ablation lpfs", ws, []variant{
		ablation("simd+refill", LPFS, k),
		ablation("simd only", lpfs.New(lpfs.Options{SIMD: true}), k),
		ablation("refill only", lpfs.New(lpfs.Options{Refill: true}), k),
		ablation("neither", lpfs.New(lpfs.Options{NoOptions: true}), k),
		ablation("l=2", lpfs.New(lpfs.Options{L: 2, SIMD: true, Refill: true}), k),
	})
}

// AblationRCP compares RCP weight settings (§4.1: w_op groups for data
// parallelism, w_dist captures locality, w_slack defers slack ops).
func AblationRCP(ws []Workload, k int) ([]Cell, error) {
	weights := func(wop, wdist, wslack float64) Scheduler {
		return rcp.New(rcp.Options{WOp: wop, WDist: wdist, WSlack: wslack, ExplicitWeights: true})
	}
	return sweep("ablation rcp", ws, []variant{
		ablation("all weights", weights(1, 1, 1), k),
		ablation("no locality", weights(1, 0, 1), k),
		ablation("no slack", weights(1, 1, 0), k),
		ablation("prevalence only", weights(1, 0, 0), k),
	})
}

// AblationComm compares the teleport-masking movement model (§2.3)
// against the strict per-boundary accounting (§4.4).
func AblationComm(ws []Workload, sched Scheduler, k int) ([]Cell, error) {
	return sweep("ablation comm", ws, []variant{
		{"masked (pipelined QT)", EvalOptions{Scheduler: sched, K: k}},
		{"strict (no overlap)", EvalOptions{Scheduler: sched, K: k, Comm: comm.Options{NoOverlap: true}}},
	})
}

// FThRow is one point of the flattening-threshold study (§3.1.1).
type FThRow struct {
	Name    string
	FTh     int64
	Leaves  int
	Modules int
	Speedup float64
	// AnalysisMS is the wall-clock cost of compiling and scheduling at
	// this threshold — the other side of the paper's FTh trade-off
	// ("when leaf modules are too large the scheduling time becomes
	// unacceptably long").
	AnalysisMS int64
}

// SweepFTh rebuilds each workload's source at several thresholds and
// measures the resulting schedule quality — the paper's motivation for
// picking FTh = 2M: too little flattening loses parallelism at module
// boundaries (Fig. 4), too much blows up scheduling time. Pipeline.Obs,
// when set, instruments both the builds and the evaluations; workers is
// the evaluations' leaf-characterization concurrency (see
// Workload.Workers).
func SweepFTh(sources []SourceWorkload, sched Scheduler, k int, fths []int64, workers int) ([]FThRow, error) {
	var rows []FThRow
	for _, sw := range sources {
		for _, fth := range fths {
			opts := sw.Pipeline
			opts.FTh = fth
			start := time.Now()
			prog, err := Build(sw.Source, opts)
			if err != nil {
				return nil, fmt.Errorf("fth %s %d: %w", sw.Name, fth, err)
			}
			w := Workload{Name: sw.Name, Prog: prog, Workers: workers, Obs: opts.Obs}
			cells, err := sweep("fth", []Workload{w}, []variant{
				{fmt.Sprintf("fth=%d", fth), EvalOptions{Scheduler: sched, K: k, Comm: unlimitedLocal}},
			})
			if err != nil {
				return nil, err
			}
			c := cells[0]
			rows = append(rows, FThRow{
				Name: sw.Name, FTh: fth,
				Leaves: c.Leaves, Modules: c.Modules,
				Speedup:    c.SpeedupVsNaive(),
				AnalysisMS: time.Since(start).Milliseconds(),
			})
		}
	}
	return rows, nil
}

// SourceWorkload carries un-compiled source for rebuild sweeps.
type SourceWorkload struct {
	Name     string
	Source   string
	Pipeline PipelineOptions
}
