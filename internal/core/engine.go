package core

// This file is the hierarchical evaluation engine. It runs in two
// steps. prepare does the per-program work, which no evaluation option
// changes: resource totals, the reachable module order, leaf
// fingerprints (hashed on the worker pool) and a once-guarded
// materialization plus DAG per distinct leaf body. The evaluation step
// then characterizes leaves under one set of EvalOptions — scheduling
// each distinct leaf body at every blackbox width and analyzing its
// movement — which is embarrassingly parallel: no (body, width) point
// depends on any other. It fans those points out over a bounded worker
// pool, one task per point (leaves sharing a body share its tasks),
// memoizes them in a content-addressed EvalCache, then composes
// non-leaf modules serially in topological order (the only place child
// results are actually consumed). Evaluate runs both steps; an
// experiment sweep prepares each workload once and evaluates every
// variant against it. Determinism: schedulers are deterministic and
// every result lands in a pre-assigned slot, so Metrics are identical at
// any worker count and on any cache temperature.
//
// Characterization has one path whatever the options: a comm hit, then
// the capacity-dominance memo, then a schedule hit, and only a miss
// schedules; movement is only ever summarized. Verification is not part
// of it: EvalOptions.Verify audits the composed result afterwards
// (audit.go), re-deriving every entry the cache served.
//
// Observability (EvalOptions.Obs) threads through here: every pool task
// traces a span on its worker slot's track, fresh materializations,
// schedules and comm analyses feed the metrics registry, and audit
// rejections count and mark the trace. All of it is nil-guarded — a run
// without an Observer takes only nil checks (see
// TestDisabled*AllocatesNothing in internal/obs).

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/scaffold-go/multisimd/internal/coarse"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/report"
	"github.com/scaffold-go/multisimd/internal/resource"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

func (o EvalOptions) workers() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// prepared is one program's evaluation-independent state, shared by
// every evaluation of one sweep (or the single evaluation of an
// Evaluate call) and dropped with it: passes mutate module bodies in
// place, so nothing here may outlive the call that built it.
// Evaluations against one prepared program run one at a time; the
// characterization tasks inside an evaluation share it concurrently.
type prepared struct {
	order      []string        // reachable modules, callees first
	leaves     []*preparedLeaf // the reachable leaves, in order
	bodies     []*leafBody     // their distinct bodies, in first-leaf order
	totalGates int64
	minQubits  int64

	materialized *obs.Counter // leaf.materialized; nil when uninstrumented

	// unlimited is the capacity-dominance memo (see unlimitedFor).
	mu        sync.Mutex
	unlimited map[commKey]unlimitedEntry
}

// preparedLeaf is one reachable leaf module: its content hash and the
// materialized body it shares with every leaf of equal hash.
type preparedLeaf struct {
	name string
	mod  *ir.Module
	fp   ir.Fingerprint
	body *leafBody
}

// leafBody is one distinct leaf body, named after the first leaf that
// has it: the unit an evaluation characterizes, and a lazily built
// (once-guarded) materialization + DAG shared by the per-width tasks of
// every evaluation in the sweep.
type leafBody struct {
	name string
	fp   ir.Fingerprint
	mod  *ir.Module
	once sync.Once
	mat  *ir.Module
	g    *dag.Graph
	err  error
}

// unlimitedEntry is a characterization with an unlimited scratchpad and
// that analysis' peak scratchpad occupancy.
type unlimitedEntry struct {
	ce   commEntry
	peak int
}

// prepare does p's per-program work: resource totals and the reachable
// order (the estimator's callees-first topological order), then every
// reachable leaf's fingerprint: taken from digests (ir.Program.Digests)
// when the caller hashed p already, else hashed on the worker pool.
// Leaves with equal fingerprints share one leafBody. Nothing is
// materialized yet: cache hits never need a body.
func prepare(ctx context.Context, p *ir.Program, digests map[string]ir.Fingerprint, workers int, o *obs.Observer) (*prepared, error) {
	tr := o.T()
	psp := tr.Span("engine", "prepare")
	defer psp.End()
	rsp := tr.Span("engine", "resource")
	pp, err := estimate(p)
	rsp.End()
	if err != nil {
		return nil, err
	}
	if r := o.M(); r != nil {
		pp.materialized = r.Counter("leaf.materialized")
	}
	for _, name := range pp.order {
		if mod := p.Modules[name]; mod.IsLeaf() {
			pp.leaves = append(pp.leaves, &preparedLeaf{name: name, mod: mod})
		}
	}
	psp.SetInt("leaves", int64(len(pp.leaves)))
	// Every characterization task keys the cache by its leaf's content
	// hash. Hashes are computed once per preparation (or handed in by a
	// caller that hashed this very program), never memoized on the
	// module: passes mutate bodies in place.
	if digests != nil {
		for _, pl := range pp.leaves {
			fp, ok := digests[pl.name]
			if !ok {
				return nil, fmt.Errorf("core: no digest for leaf %s", pl.name)
			}
			pl.fp = fp
		}
	} else {
		err = runTasks(ctx, len(pp.leaves), workers, func(_, i int) error {
			pp.leaves[i].fp = pp.leaves[i].mod.Fingerprint()
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	bodies := make(map[ir.Fingerprint]*leafBody, len(pp.leaves))
	for _, pl := range pp.leaves {
		if pl.body = bodies[pl.fp]; pl.body == nil {
			pl.body = &leafBody{name: pl.name, fp: pl.fp, mod: pl.mod}
			bodies[pl.fp] = pl.body
			pp.bodies = append(pp.bodies, pl.body)
		}
	}
	return pp, nil
}

// estimate runs the resource estimator: the program-wide gate and qubit
// totals and the reachable order.
func estimate(p *ir.Program) (*prepared, error) {
	est, err := resource.New(p)
	if err != nil {
		return nil, err
	}
	pp := &prepared{order: est.Reachable()}
	if pp.totalGates, err = est.TotalGates(); err != nil {
		return nil, err
	}
	if pp.minQubits, err = est.MinQubits(); err != nil {
		return nil, err
	}
	return pp, nil
}

// materializeLimit bounds a materialized leaf body (4M ops); a larger
// leaf fails with ir.ErrTooLarge before anything is allocated.
const materializeLimit = 4 << 20

// MaterializeLeaf expands a leaf module's repeat counts under the
// engine's op limit and builds the dependency DAG the fine-grained
// schedulers take. Every caller that schedules a leaf directly goes
// through it, so all of them share one limit.
func MaterializeLeaf(mod *ir.Module) (*ir.Module, *dag.Graph, error) {
	mat, err := mod.Materialize(materializeLimit)
	if err != nil {
		return nil, nil, err
	}
	g, err := dag.Build(mat)
	if err != nil {
		return nil, nil, err
	}
	return mat, g, nil
}

// Leaf is one leaf module scheduled on its own: its dependency DAG, its
// fine-grained schedule and the full communication analysis, move lists
// included.
type Leaf struct {
	G    *dag.Graph
	S    *schedule.Schedule
	Comm *comm.Result
}

// ScheduleLeaf materializes mod, schedules it with sched on a
// Multi-SIMD(w,d) machine and analyzes its movement under copts: the
// one path for every caller that needs one leaf's move lists.
func ScheduleLeaf(mod *ir.Module, sched Scheduler, w, d int, copts comm.Options) (*Leaf, error) {
	mat, g, err := MaterializeLeaf(mod)
	if err != nil {
		return nil, err
	}
	return scheduleBody(mat, g, sched, w, d, copts)
}

// scheduleBody schedules a materialized leaf body with its DAG and
// analyzes its movement in full.
func scheduleBody(mat *ir.Module, g *dag.Graph, sched Scheduler, w, d int, copts comm.Options) (*Leaf, error) {
	s, err := sched.Schedule(mat, g, w, d)
	if err != nil {
		return nil, err
	}
	res, err := comm.Analyze(s, copts)
	if err != nil {
		return nil, err
	}
	return &Leaf{G: g, S: s, Comm: res}, nil
}

// BuildReport assembles the schedule report of p's evaluation under
// opts, whose Metrics are m: every reachable leaf is re-derived at
// width k (see rederive; the scheduler's decision log stays out of it),
// and Modules is sorted by name. Totals denormalizes m so the report is
// self-contained.
func BuildReport(ctx context.Context, p *ir.Program, benchmark string, m *Metrics, opts EvalOptions) (*report.Report, error) {
	pp, err := prepare(ctx, p, nil, opts.workers(), nil)
	if err != nil {
		return nil, err
	}
	mods := make([]report.ModuleReport, len(pp.leaves))
	err = pp.rederive(ctx, opts, []int{opts.K}, func(i, _ int, l *Leaf) error {
		mods[i] = report.Analyze(pp.leaves[i].name, l.S, l.G, l.Comm)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(mods, func(i, j int) bool { return mods[i].Name < mods[j].Name })

	r := &report.Report{
		Schema:    report.SchemaVersion,
		Benchmark: benchmark,
		Scheduler: opts.scheduler().Name(),
		K:         opts.K,
		D:         opts.D,
		Comm:      report.CommConfigOf(opts.Comm),
		Totals:    report.Totals{Metrics: m.Wire()},
		Modules:   mods,
	}
	if m.CommCycles > 0 && m.CommCycles > m.ZeroCommSteps {
		r.Totals.CommOverheadFraction =
			float64(m.CommCycles-m.ZeroCommSteps) / float64(m.CommCycles)
	}
	return r, nil
}

// graph materializes a leaf body and builds its dependency DAG exactly
// once per preparation, however many widths and variants need it.
// Cache hits never call it — a fully warm leaf skips materialization
// entirely.
func (pp *prepared) graph(b *leafBody) (*ir.Module, *dag.Graph, error) {
	b.once.Do(func() {
		pp.materialized.Inc()
		b.mat, b.g, b.err = MaterializeLeaf(b.mod)
	})
	return b.mat, b.g, b.err
}

// unlimitedFor is the capacity-dominance memo's lookup. The scratchpad
// capacity C is read in exactly one place, the analyzer's
// `localOcc[r] < C` admission check, so an analysis whose peak
// occupancy P stayed below C never saw that check fail: it is the
// unlimited-capacity result. The same check passes on every admission
// under any capacity >= P, so that one result serves every such point
// of the same schedule and movement options. The memo is keyed by ck
// with the capacity normalized to unlimited.
func (pp *prepared) unlimitedFor(ck commKey) (commEntry, bool) {
	c := ck.comm.LocalCapacity
	ck.comm.LocalCapacity = -1
	pp.mu.Lock()
	u, ok := pp.unlimited[ck]
	pp.mu.Unlock()
	if !ok || (c >= 0 && c < u.peak) {
		return commEntry{}, false
	}
	return u.ce, true
}

// unbound reports whether an analysis under scratchpad capacity c that
// peaked at occupancy peak is the unlimited-capacity result: c is
// unlimited, or the admission check never met a full scratchpad.
func unbound(c, peak int) bool { return c < 0 || peak < c }

// noteUnlimited records ck's fresh analysis in the memo when its
// capacity never bound.
func (pp *prepared) noteUnlimited(ck commKey, ce commEntry, peak int) {
	if !unbound(ck.comm.LocalCapacity, peak) {
		return
	}
	ck.comm.LocalCapacity = -1
	pp.mu.Lock()
	if pp.unlimited == nil {
		pp.unlimited = map[commKey]unlimitedEntry{}
	}
	pp.unlimited[ck] = unlimitedEntry{ce: ce, peak: peak}
	pp.mu.Unlock()
}

// engine is one evaluation of a prepared program under one set of
// EvalOptions.
type engine struct {
	ctx    context.Context
	pp     *prepared
	opts   EvalOptions
	sched  Scheduler
	cfg    string
	comm   comm.Options
	widths []int
	cache  *EvalCache
	// rec is this run's cache-traffic view: the caller's recorder
	// (EvalOptions.CacheStats) or a private one, never nil — so
	// publish() reports exactly this evaluation's traffic even while
	// other runs share the cache.
	rec *CacheRecorder
	eo  engObs
}

// engObs is the engine's pre-resolved observability handles: the tracer
// plus every instrument it updates, looked up once per run so the hot
// path never touches the registry's name map. All fields may be nil
// (instrument methods no-op on nil receivers).
type engObs struct {
	tr *obs.Tracer

	tasks      *obs.Counter // pool tasks executed
	schedFresh *obs.Counter // schedules computed (cache misses)
	schedSteps *obs.Counter // timesteps across fresh schedules
	commFresh  *obs.Counter // comm analyses computed
	commGlobal *obs.Counter // teleports across fresh comm analyses
	commLocal  *obs.Counter // local moves across fresh comm analyses
	commStall  *obs.Counter // EPR-stall overhead cycles across fresh analyses
	verifyRej  *obs.Counter // Verify audit rejections

	queueDepth  *obs.Gauge // tasks not yet claimed by a worker
	workersPeak *obs.Gauge // peak concurrently running pool tasks

	opsPerStep *obs.Histogram // ops scheduled per timestep (fresh schedules)
}

func newEngObs(o *obs.Observer) engObs {
	eo := engObs{tr: o.T()}
	r := o.M()
	if r == nil {
		return eo
	}
	eo.tasks = r.Counter("engine.tasks")
	eo.schedFresh = r.Counter("sched.fresh")
	eo.schedSteps = r.Counter("sched.steps")
	eo.commFresh = r.Counter("comm.fresh")
	eo.commGlobal = r.Counter("comm.global_moves")
	eo.commLocal = r.Counter("comm.local_moves")
	eo.commStall = r.Counter("comm.stall_cycles")
	eo.verifyRej = r.Counter("verify.rejections")
	eo.queueDepth = r.Gauge("engine.queue.depth")
	eo.workersPeak = r.Gauge("engine.workers.peak")
	eo.opsPerStep = r.Histogram("sched.ops_per_step")
	return eo
}

func newEngine(ctx context.Context, opts EvalOptions) *engine {
	cache := opts.Cache
	if cache == nil {
		// An ephemeral per-run cache still dedupes structurally identical
		// leaves within the program (content-addressed fingerprints).
		cache = NewEvalCache()
	}
	sched := opts.scheduler()
	rec := opts.CacheStats
	if rec == nil {
		rec = &CacheRecorder{}
	}
	return &engine{
		ctx:    ctx,
		opts:   opts,
		sched:  sched,
		cfg:    schedulerConfig(sched),
		comm:   opts.Comm,
		widths: widthSet(opts.K),
		cache:  cache,
		rec:    rec,
		eo:     newEngObs(opts.Obs),
	}
}

// schedulerConfig renders a scheduler's identity plus tuning knobs for
// cache keys. Adapters expose Config(); anything else falls back to a
// %+v rendering of the concrete value.
func schedulerConfig(s Scheduler) string {
	if c, ok := s.(interface{ Config() string }); ok {
		return c.Config()
	}
	return fmt.Sprintf("%s|%+v", s.Name(), s)
}

// run evaluates every reachable module, bottom-up, and returns the
// per-module characterizations. Leaves are characterized per distinct
// body, and every leaf name points at its body's moduleEval.
func (e *engine) run(p *ir.Program) (map[string]*moduleEval, error) {
	evals := make(map[string]*moduleEval, len(e.pp.order))
	bodies := make([]*leafState, len(e.pp.bodies))
	for i, b := range e.pp.bodies {
		bodies[i] = &leafState{leafBody: b, slots: make([]commEntry, len(e.widths))}
	}

	lsp := e.eo.tr.Span("engine", "characterize-leaves")
	lsp.SetInt("leaves", int64(len(e.pp.leaves)))
	lsp.SetInt("bodies", int64(len(bodies)))
	lsp.SetInt("widths", int64(len(e.widths)))
	err := e.evalLeaves(bodies)
	lsp.End()
	if err != nil {
		return nil, err
	}
	byBody := make(map[*leafBody]*moduleEval, len(bodies))
	for _, ls := range bodies {
		byBody[ls.leafBody] = ls.assemble(e.widths)
	}
	for _, pl := range e.pp.leaves {
		evals[pl.name] = byBody[pl.body]
	}

	// Non-leaf composition consumes child dims, so it runs serially in
	// topological order. It is not free — its cost grows with module
	// count times widths — so evalNonLeaf builds one coarse plan per
	// (module, cost model) and re-runs only the placer per width.
	csp := e.eo.tr.Span("engine", "compose")
	for _, name := range e.pp.order {
		if err := e.ctx.Err(); err != nil {
			csp.End()
			return nil, err
		}
		mod := p.Modules[name]
		if mod.IsLeaf() {
			continue
		}
		var msp obs.Span
		if e.eo.tr.Enabled() {
			msp = e.eo.tr.Span("compose", name)
		}
		ev, err := evalNonLeaf(mod, e.widths, evals, e.eo.tr)
		msp.End()
		if err != nil {
			csp.End()
			return nil, fmt.Errorf("core: module %s: %w", name, err)
		}
		evals[name] = ev
	}
	csp.End()
	return evals, nil
}

// leafState carries one distinct leaf body through one evaluation's
// pool: its critical path and a pre-assigned result slot per width.
type leafState struct {
	*leafBody
	cp    int64
	slots []commEntry
}

// assemble folds the per-width slots into a moduleEval, widths ascending
// — identical output regardless of task completion order.
func (ls *leafState) assemble(widths []int) *moduleEval {
	zero := make([]int64, len(widths))
	withComm := make([]int64, len(widths))
	for wi, ce := range ls.slots {
		zero[wi] = ce.zeroLen
		withComm[wi] = ce.cycles
	}
	ev := &moduleEval{
		cp:       ls.cp,
		zero:     coarse.Dims{Widths: slices.Clone(widths), Lengths: zero},
		withComm: coarse.Dims{Widths: slices.Clone(widths), Lengths: withComm},
	}
	if n := len(widths); n > 0 {
		ev.globals = ls.slots[n-1].globals
		ev.locals = ls.slots[n-1].locals
	}
	return ev
}

// evalLeaves characterizes every (body, width) point on the worker pool:
// one task per point, so no two tasks of a run share a cache key.
// Each task traces a span on its worker slot's track (tid = slot + 1;
// tid 0 is the coordinating goroutine), so the trace shows pool
// utilization as a timeline; a running-task high-water mark and the
// unclaimed-queue depth feed the registry.
func (e *engine) evalLeaves(leaves []*leafState) error {
	nW := len(e.widths)
	n := len(leaves) * nW
	workers := e.opts.workers()
	if e.eo.tr.Enabled() {
		e.eo.tr.SetThreadName(0, "main")
		nw := workers
		if nw > n {
			nw = n
		}
		for s := 0; s < nw; s++ {
			e.eo.tr.SetThreadName(int64(s+1), fmt.Sprintf("worker-%02d", s))
		}
	}
	var running atomic.Int64
	task := func(slot, i int) error {
		ls := leaves[i/nW]
		wi := i % nW
		e.eo.tasks.Inc()
		e.eo.queueDepth.Set(int64(n - 1 - i))
		e.eo.workersPeak.Max(running.Add(1))
		defer running.Add(-1)
		var sp obs.Span
		if e.eo.tr.Enabled() {
			sp = e.eo.tr.SpanTID("leaf", fmt.Sprintf("%s w=%d", ls.name, e.widths[wi]), int64(slot+1))
		}
		err := e.characterize(ls, wi, &sp)
		sp.End()
		if err != nil {
			return fmt.Errorf("core: module %s: %w", ls.name, err)
		}
		return nil
	}
	return runTasks(e.ctx, n, workers, task)
}

// characterize fills one leaf's width slot, consulting the cache layers
// outermost-first: a comm hit is free; a capacity-dominated point reuses
// this sweep's unlimited-scratchpad result; a schedule hit re-runs only
// the movement summary; a miss schedules and summarizes, then populates
// both. sp is the task's trace span, annotated with which layer served
// the point (inert when tracing is off).
func (e *engine) characterize(ls *leafState, wi int, sp *obs.Span) error {
	if wi == 0 {
		cp, ok := e.cache.criticalPath(ls.fp, e.rec)
		if !ok {
			_, g, err := e.pp.graph(ls.leafBody)
			if err != nil {
				return err
			}
			cp = int64(g.CriticalPath())
			e.cache.putCriticalPath(ls.fp, cp)
		}
		ls.cp = cp
	}

	w := e.widths[wi]
	sk := schedKey{fp: ls.fp, config: e.cfg, w: w, d: e.opts.D}
	ck := commKey{sk: sk, comm: e.comm}
	if ce, ok := e.cache.commResult(ck, e.rec); ok {
		sp.SetStr("cache", "comm-hit")
		ls.slots[wi] = ce
		return nil
	}
	if ce, ok := e.pp.unlimitedFor(ck); ok {
		sp.SetStr("cache", "capacity-dominated")
		e.cache.putCommResult(ck, ce)
		ls.slots[wi] = ce
		return nil
	}
	s, ok := e.cache.schedule(sk, e.rec)
	if !ok {
		sp.SetStr("cache", "miss")
		mat, g, err := e.pp.graph(ls.leafBody)
		if err != nil {
			return err
		}
		if s, err = e.sched.Schedule(mat, g, w, e.opts.D); err != nil {
			return err
		}
		e.cache.putSchedule(sk, s)
		e.eo.schedFresh.Inc()
		e.eo.schedSteps.Add(int64(len(s.Steps)))
		if e.eo.opsPerStep != nil {
			for i := range s.Steps {
				e.eo.opsPerStep.Observe(int64(s.Steps[i].Ops()))
			}
		}
	} else {
		sp.SetStr("cache", "sched-hit")
	}
	sum, err := comm.Summarize(s, e.comm)
	if err != nil {
		return err
	}
	e.eo.commFresh.Inc()
	e.eo.commGlobal.Add(sum.GlobalMoves)
	e.eo.commLocal.Add(sum.LocalMoves)
	e.eo.commStall.Add(sum.StallCycles)
	sp.SetInt("steps", int64(s.Length()))
	sp.SetInt("cycles", sum.Cycles)
	sp.SetInt("global_moves", sum.GlobalMoves)
	sp.SetInt("local_moves", sum.LocalMoves)
	sp.SetInt("stall_cycles", sum.StallCycles)
	ce := entryOf(s, sum)
	e.cache.putCommResult(ck, ce)
	e.pp.noteUnlimited(ck, ce, sum.MaxLocalOccupancy)
	ls.slots[wi] = ce
	return nil
}

// runTasks executes task(slot, 0..n-1) on up to `workers` goroutines;
// slot identifies the executing worker (0-based, stable per goroutine).
// With one worker it degenerates to today's serial loop — no goroutines,
// stop at the first error. In parallel mode workers claim indices in
// order from an atomic counter; on error the pool drains and the error
// with the lowest task index is returned, which is the same error the
// serial path would have surfaced (tasks are deterministic, and every
// index below a claimed one has itself been claimed). Context
// cancellation is checked before each claim: in-flight tasks finish,
// nothing new starts, and the context's error is returned.
func runTasks(ctx context.Context, n, workers int, task func(slot, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := task(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		errIdx  = n
		firstEr error
	)
	next.Store(-1)
	fail := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, firstEr = i, err
		}
		mu.Unlock()
		stopped.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(i, err)
					return
				}
				if err := task(slot, i); err != nil {
					fail(i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstEr
}
