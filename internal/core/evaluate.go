package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/scaffold-go/multisimd/internal/coarse"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/report"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

// Scheduler is the fine-grained scheduling algorithm interface shared
// with package schedule. Algorithms self-register; look them up by name
// with SchedulerByName or use the RCP/LPFS defaults.
type Scheduler = schedule.Scheduler

var (
	// RCP is the Ready Critical Path scheduler (Algorithm 1) at its
	// paper-default weights.
	RCP Scheduler = rcp.Scheduler{}
	// LPFS is Longest Path First Scheduling (Algorithm 2), run with
	// l = 1, SIMD and Refill as in the paper.
	LPFS Scheduler = lpfs.Scheduler{}
)

// SchedulerByName resolves a scheduler from the global registry, the
// lookup behind every command-line -sched flag.
func SchedulerByName(name string) (Scheduler, error) {
	if s, ok := schedule.Lookup(name); ok {
		return s, nil
	}
	return nil, fmt.Errorf("core: unknown scheduler %q (registered: %s)",
		name, strings.Join(schedule.Names(), ", "))
}

// WithDecisionLog returns s with the introspection log l attached, when
// the scheduler supports one (the rcp and lpfs adapters do); a nil l
// detaches any log s carries. Schedulers without the hook pass through
// unchanged, so callers can apply it unconditionally. Decision logging
// does not alter schedules; the log is excluded from cache-key
// configuration strings.
func WithDecisionLog(s Scheduler, l *obs.DecisionLog) Scheduler {
	if s == nil {
		return s
	}
	if w, ok := s.(interface {
		WithDecisionLog(*obs.DecisionLog) schedule.Scheduler
	}); ok {
		return w.WithDecisionLog(l)
	}
	return s
}

// EvalOptions configures a hierarchical evaluation run.
type EvalOptions struct {
	// Scheduler is the fine-grained algorithm; nil defaults to RCP.
	// Tuned variants come from rcp.New / lpfs.New or the registry.
	Scheduler Scheduler
	// K is the number of SIMD regions; D the per-region data parallelism
	// (0 = ∞, the paper's setting).
	K int
	D int

	// Comm bundles the communication-model knobs (scratchpad capacity,
	// movement accounting, EPR bandwidth) declared once and shared with
	// comm.Analyze and the characterization cache key.
	Comm comm.Options

	// Verify audits the evaluation after it has composed its Metrics:
	// every reachable leaf is rescheduled at every width from scratch,
	// its schedule and move list pass the independent legality oracle
	// (internal/verify), and each re-derived characterization must equal
	// the one the cache served — from memory, a disk store or a preload —
	// and recompose to identical Metrics. A difference fails the run.
	// The evaluation itself takes the same path either way; the audit
	// roughly repeats a cold run's work, so the engine's tests, qsched
	// -verify and /v1/verify turn it on and perf-sensitive sweeps leave
	// it off.
	Verify bool

	// Obs, when non-nil, receives the run's observability streams: a
	// span per pipeline phase, engine stage and worker-pool task on
	// Obs.Trace; cache, schedule, movement and verifier instruments on
	// Obs.Metrics (names in DESIGN.md); nothing on Obs.Decisions — the
	// scheduler decision log attaches to the scheduler itself (see
	// WithDecisionLog). Nil disables all instrumentation at the cost of
	// nil checks only.
	Obs *obs.Observer

	// Workers bounds the engine's leaf-characterization concurrency:
	// 0 uses runtime.GOMAXPROCS(0), 1 runs the serial path. Results are
	// identical at any worker count (see engine.go).
	Workers int
	// Cache, when non-nil, memoizes leaf characterizations across
	// Evaluate calls, keyed by content fingerprint, scheduler
	// configuration, width and comm options. Experiment sweeps share one
	// cache per benchmark so repeated configurations reuse schedules and
	// only re-run comm.Analyze when comm options change.
	Cache *EvalCache

	// CacheStats, when non-nil, receives this evaluation's own cache
	// traffic (hits, misses, disk-layer traffic) — an exact attribution
	// even when many evaluations share one Cache concurrently. The
	// service fills its per-request access-log cache blocks from here;
	// reading the shared cache's global Stats() around a run would bleed
	// concurrent flights' traffic into each other.
	CacheStats *CacheRecorder
}

// scheduler resolves the effective scheduler, defaulting to RCP. Tuned
// variants come from lpfs.New / rcp.New or the schedule registry; the
// options struct no longer carries per-algorithm knobs.
func (o EvalOptions) scheduler() Scheduler {
	if o.Scheduler == nil {
		return RCP
	}
	return o.Scheduler
}

// Metrics is the paper's per-benchmark measurement set.
type Metrics struct {
	// Program shape.
	TotalGates int64 // fully expanded gate count (sequential timesteps)
	MinQubits  int64 // Table 1's Q
	Modules    int
	Leaves     int

	// Parallelism-only (Fig. 6).
	CriticalPath  int64 // hierarchical critical-path estimate
	ZeroCommSteps int64 // scheduled length, zero-cost communication

	// Communication-aware (Figs. 7–9).
	CommCycles  int64 // schedule length including movement overhead
	GlobalMoves int64 // estimated teleport count (≈ EPR pairs)
	LocalMoves  int64

	// Baselines.
	SeqCycles   int64 // sequential execution: one gate per timestep
	NaiveCycles int64 // sequential + naive movement (5x)
}

// SpeedupVsSeq is the Fig. 6 y-axis: sequential gates over scheduled
// steps with free communication.
func (m *Metrics) SpeedupVsSeq() float64 {
	if m.ZeroCommSteps == 0 {
		return 0
	}
	return float64(m.SeqCycles) / float64(m.ZeroCommSteps)
}

// CPSpeedup is the theoretical parallelism bound (Fig. 6 "cp" bars).
func (m *Metrics) CPSpeedup() float64 {
	if m.CriticalPath == 0 {
		return 0
	}
	return float64(m.SeqCycles) / float64(m.CriticalPath)
}

// SpeedupVsNaive is the Figs. 7–9 y-axis: naive-movement sequential
// runtime over the communication-aware scheduled runtime.
func (m *Metrics) SpeedupVsNaive() float64 {
	if m.CommCycles == 0 {
		return 0
	}
	return float64(m.NaiveCycles) / float64(m.CommCycles)
}

// Wire renders m in its one wire shape, speedups included: the
// service's response bodies and a report's Totals.
func (m *Metrics) Wire() report.Metrics {
	return report.Metrics{
		TotalGates:     m.TotalGates,
		MinQubits:      m.MinQubits,
		Modules:        m.Modules,
		Leaves:         m.Leaves,
		CriticalPath:   m.CriticalPath,
		ZeroCommSteps:  m.ZeroCommSteps,
		CommCycles:     m.CommCycles,
		GlobalMoves:    m.GlobalMoves,
		LocalMoves:     m.LocalMoves,
		SeqCycles:      m.SeqCycles,
		NaiveCycles:    m.NaiveCycles,
		SpeedupVsSeq:   m.SpeedupVsSeq(),
		SpeedupVsNaive: m.SpeedupVsNaive(),
		CPSpeedup:      m.CPSpeedup(),
	}
}

// moduleEval caches one module's blackbox characterizations.
type moduleEval struct {
	zero     coarse.Dims // schedule length per width, free communication
	withComm coarse.Dims // cycles per width, movement included
	cp       int64       // critical-path estimate
	globals  int64       // teleports per invocation (at full width)
	locals   int64
}

// Evaluate compiles nothing: it takes a built program (post decompose and
// flatten) and evaluates it hierarchically on a Multi-SIMD(k,d) machine,
// reproducing the paper's measurement flow: fine-grained schedules and
// flexible blackbox dims for leaves, coarse-grained composition above.
// Leaf characterizations fan out over EvalOptions.Workers goroutines and
// memoize through EvalOptions.Cache; both are transparent — the returned
// Metrics are identical to the serial, uncached path.
func Evaluate(p *ir.Program, opts EvalOptions) (*Metrics, error) {
	return EvaluateContext(context.Background(), p, opts)
}

// EvaluateContext is Evaluate under a context: cancellation or deadline
// expiry stops the run between leaf-characterization tasks (in-flight
// scheduler calls finish; nothing new starts) and between non-leaf
// compositions, returning the context's error. Partial results never
// leak — the cache only ever receives completed characterizations, so an
// abandoned run leaves it consistent for the next caller. The service
// daemon threads each request's context through here; batch callers use
// Evaluate.
func EvaluateContext(ctx context.Context, p *ir.Program, opts EvalOptions) (*Metrics, error) {
	return evaluate(ctx, p, nil, nil, opts)
}

// EvaluateDigests is EvaluateContext for a caller that has hashed p
// already: digests is ir.Program.Digests' Modules for this very p, and
// the engine keys every leaf by its digest there instead of hashing it
// again. The service daemon keys each request by the same pass.
func EvaluateDigests(ctx context.Context, p *ir.Program, digests map[string]ir.Fingerprint, opts EvalOptions) (*Metrics, error) {
	return evaluate(ctx, p, nil, digests, opts)
}

// evaluate is the one evaluation path. pp, when non-nil, is p already
// prepared by the caller (a sweep shares one preparation across its
// variants); otherwise p is prepared inside the run span, with the
// caller's leaf digests when it has them.
func evaluate(ctx context.Context, p *ir.Program, pp *prepared, digests map[string]ir.Fingerprint, opts EvalOptions) (*Metrics, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("core: k must be >= 1")
	}
	e := newEngine(ctx, opts)
	esp := e.eo.tr.Span("engine", "evaluate")
	esp.SetInt("k", int64(opts.K))
	esp.SetStr("scheduler", e.sched.Name())
	if id := obs.RequestID(ctx); id != "" {
		// The service threads its request id through the context; stamp
		// it on the run span and the scheduler's decision log so traces
		// and decision streams correlate with access-log lines.
		esp.SetStr("request_id", id)
		if dl, ok := e.sched.(interface{ DecisionLog() *obs.DecisionLog }); ok {
			dl.DecisionLog().SetRequest(id)
		}
	}
	var m *Metrics
	var err error
	if pp == nil {
		pp, err = prepare(ctx, p, digests, opts.workers(), opts.Obs)
	}
	if err == nil {
		e.pp = pp
		m, err = e.evaluate(p)
	}
	if err == nil && opts.Verify {
		err = e.audit(p, m)
	}
	if m != nil {
		esp.SetInt("comm_cycles", m.CommCycles)
	}
	esp.End()
	if err != nil {
		return nil, err
	}
	e.publish(m)
	return m, nil
}

// evaluate is the evaluation step's body: characterize and compose the
// prepared program, then read the entry module's best dims at k.
func (e *engine) evaluate(p *ir.Program) (*Metrics, error) {
	m := &Metrics{
		TotalGates: e.pp.totalGates,
		MinQubits:  e.pp.minQubits,
		Modules:    len(e.pp.order),
		Leaves:     len(e.pp.leaves),
		SeqCycles:  e.pp.totalGates,
	}
	m.NaiveCycles = comm.NaiveCycles(m.TotalGates)

	evals, err := e.run(p)
	if err != nil {
		return nil, err
	}
	entry := evals[p.Entry]
	if entry == nil {
		return nil, fmt.Errorf("core: entry module %q not evaluated", p.Entry)
	}
	k := e.opts.K
	_, zeroLen, ok := entry.zero.Best(k)
	if !ok {
		return nil, fmt.Errorf("core: entry has no schedule within k=%d", k)
	}
	_, commLen, ok := entry.withComm.Best(k)
	if !ok {
		return nil, fmt.Errorf("core: entry has no comm schedule within k=%d", k)
	}
	m.ZeroCommSteps = zeroLen
	m.CommCycles = commLen
	m.CriticalPath = entry.cp
	m.GlobalMoves = entry.globals
	m.LocalMoves = entry.locals
	return m, nil
}

// publish pushes the run's results into the metrics registry: the
// final Metrics as eval.* gauges (so a -metrics-out snapshot agrees
// with the printed report by construction) and this run's cache-layer
// traffic as eval_cache.* counters. Traffic comes from the engine's
// per-run recorder — exact even when concurrent runs share the cache —
// while occupancy gauges read the shared cache's absolutes.
func (e *engine) publish(m *Metrics) {
	r := e.opts.Obs.M()
	if r == nil {
		return
	}
	d := e.rec.counts()
	for i, name := range counterMetric {
		r.Counter(name).Add(d[i])
	}
	occ := e.cache.Stats()
	r.Gauge("eval_cache.sched.entries").Set(int64(occ.SchedEntries))
	r.Gauge("eval_cache.comm.entries").Set(int64(occ.CommEntries))
	r.Gauge("eval_cache.mem.bytes").Set(occ.MemBytes)
	r.Gauge("eval_cache.mem.evictions").Set(occ.MemEvictions)
	r.Gauge("eval_cache.disk.entries").Set(int64(occ.DiskEntries))
	r.Gauge("eval_cache.disk.bytes").Set(occ.DiskBytes)

	r.Gauge("eval.total_gates").Set(m.TotalGates)
	r.Gauge("eval.min_qubits").Set(m.MinQubits)
	r.Gauge("eval.modules").Set(int64(m.Modules))
	r.Gauge("eval.leaves").Set(int64(m.Leaves))
	r.Gauge("eval.critical_path").Set(m.CriticalPath)
	r.Gauge("eval.zero_comm_steps").Set(m.ZeroCommSteps)
	r.Gauge("eval.comm_cycles").Set(m.CommCycles)
	r.Gauge("eval.global_moves").Set(m.GlobalMoves)
	r.Gauge("eval.local_moves").Set(m.LocalMoves)
}

// widthSet picks the blackbox widths characterized per module: all
// widths up to 8 regions, powers of two beyond (plus k itself).
func widthSet(k int) []int {
	var ws []int
	for w := 1; w <= k && w <= 8; w++ {
		ws = append(ws, w)
	}
	for w := 16; w < k; w *= 2 {
		ws = append(ws, w)
	}
	if k > 8 {
		ws = append(ws, k)
	}
	return ws
}

// evalNonLeaf characterizes a non-leaf via coarse scheduling over its
// callees' cached dims: one coarse plan per cost model, placed at every
// width. The dims own their width lists; nothing aliases widths.
func evalNonLeaf(mod *ir.Module, widths []int, evals map[string]*moduleEval, tr *obs.Tracer) (*moduleEval, error) {
	dimsOf := func(pick func(*moduleEval) coarse.Dims) func(string) (coarse.Dims, error) {
		return func(callee string) (coarse.Dims, error) {
			c := evals[callee]
			if c == nil {
				return coarse.Dims{}, fmt.Errorf("core: callee %s not yet evaluated", callee)
			}
			return pick(c), nil
		}
	}
	zero, err := coarse.Lengths(mod, coarse.ZeroComm, dimsOf(func(c *moduleEval) coarse.Dims { return c.zero }), widths, tr)
	if err != nil {
		return nil, err
	}
	withComm, err := coarse.Lengths(mod, coarse.WithComm, dimsOf(func(c *moduleEval) coarse.Dims { return c.withComm }), widths, tr)
	if err != nil {
		return nil, err
	}
	ev := &moduleEval{
		zero:     coarse.Dims{Widths: slices.Clone(widths), Lengths: zero},
		withComm: coarse.Dims{Widths: slices.Clone(widths), Lengths: withComm},
	}
	// Critical path: longest dependency chain with callee CPs as weights.
	ev.cp = coarseCriticalPath(mod, func(callee string) int64 {
		if c := evals[callee]; c != nil {
			return c.cp
		}
		return 1
	})
	// Movement estimate: callee moves scale by invocation counts; stray
	// coarse-level gates teleport their operands (cost model WithComm).
	for i := range mod.Ops {
		op := &mod.Ops[i]
		switch op.Kind {
		case ir.GateOp:
			ev.globals += op.EffCount()
		case ir.CallOp:
			if c := evals[op.Callee]; c != nil {
				ev.globals = satAdd(ev.globals, satMul(c.globals, op.EffCount()))
				ev.locals = satAdd(ev.locals, satMul(c.locals, op.EffCount()))
			}
		}
	}
	return ev, nil
}

// coarseCriticalPath computes the longest dependency chain of a module
// where gates weigh their count and calls weigh count x callee CP.
func coarseCriticalPath(mod *ir.Module, cpOf func(string) int64) int64 {
	finish := make([]int64, len(mod.Ops))
	last := make([]int32, mod.TotalSlots()) // slot -> op index, -1 = untouched
	for s := range last {
		last[s] = -1
	}
	var total int64
	for i := range mod.Ops {
		op := &mod.Ops[i]
		var start int64
		touch := func(slot int) {
			if p := last[slot]; p >= 0 && finish[p] > start {
				start = finish[p]
			}
		}
		for _, s := range op.Args {
			touch(s)
		}
		for _, r := range op.CallArgs {
			for s := r.Start; s < r.Start+r.Len; s++ {
				touch(s)
			}
		}
		var w int64
		switch op.Kind {
		case ir.GateOp:
			w = op.EffCount()
		case ir.CallOp:
			w = satMul(cpOf(op.Callee), op.EffCount())
		}
		finish[i] = satAdd(start, w)
		if finish[i] > total {
			total = finish[i]
		}
		for _, s := range op.Args {
			last[s] = int32(i)
		}
		for _, r := range op.CallArgs {
			for s := r.Start; s < r.Start+r.Len; s++ {
				last[s] = int32(i)
			}
		}
	}
	return total
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}
