package core

// This file is the hierarchical evaluation engine. It runs in two
// steps. prepare does the per-program work, which no evaluation
// option changes: resource totals, the reachable module order, leaf
// fingerprints (from the caller's one ir.Program.Digests pass) and a
// once-guarded materialization plus DAG per distinct leaf body. The
// evaluation step then characterizes leaves under one or more variants
// of EvalOptions — scheduling each distinct leaf body at every blackbox
// width and pricing its movement — which is embarrassingly parallel:
// no (variant, body, width) point depends on any other. One worker pool
// per evaluation runs every variant's points, one task per schedule key
// (the points of variants sharing a scheduler, width and d share a
// task and run in variant order), claimed largest body first. Points
// memoize in a content-addressed EvalCache. A second pool then composes
// the variants' non-leaf modules, one task per variant, each serially
// in topological order (the only place child results are actually
// consumed). Evaluate is the one-variant case; an experiment sweep
// prepares each workload once and evaluates all its variants together.
// Determinism: schedulers are deterministic, every result lands in a
// pre-assigned slot and every cache key sees its lookups in the order
// the variants run one after another, so Metrics, cache traffic and
// work counters are identical at any worker count and on any cache
// temperature.
//
// Characterization has one path whatever the options: a comm hit, then
// a schedule-layer hit, whose movement profile is priced under the
// options, and only a miss schedules and profiles, then releases the
// schedule's slabs to the next one (schedule.Release). Verification is not
// part of it: EvalOptions.Verify audits the composed result afterwards
// (audit.go), re-deriving every entry the cache served.
//
// Observability (EvalOptions.Obs) threads through here: every point
// traces a span on its worker slot's track, fresh materializations,
// schedules and comm analyses feed the metrics registry, audit
// rejections count and mark the trace, and a fresh schedule records its
// decisions into a buffer of its own point, appended to Obs.Decisions
// in (variant, body, width) order once every point has run. All of it
// is nil-guarded — a run without an Observer takes only nil checks (see
// TestDisabled*AllocatesNothing in internal/obs).

import (
	"cmp"
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
// every variant of one sweep (or the single variant of an Evaluate
// call) and dropped with it: passes mutate module bodies in place, so
// nothing here may outlive the call that built it. The
// characterization tasks of every variant share it concurrently.
type prepared struct {
	order      []string        // reachable modules, callees first
	leaves     []*preparedLeaf // the reachable leaves, in order
	bodies     []*leafBody     // their distinct bodies, in first-leaf order
	totalGates int64
	minQubits  int64

	materialized *obs.Counter // leaf.materialized; nil when uninstrumented
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
	size int64 // materialized op count
	once sync.Once
	mat  *ir.Module
	g    *dag.Graph
	err  error
}

// prepare does p's per-program work: resource totals and the reachable
// order (the estimator's callees-first topological order), then every
// reachable leaf's fingerprint, taken from digests (ir.Program.Digests'
// Modules for this very p). Leaves with equal fingerprints share one
// leafBody. Nothing is materialized yet: cache hits never need a body.
func prepare(p *ir.Program, digests map[string]ir.Fingerprint, o *obs.Observer) (*prepared, error) {
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
	// hash, computed by the caller's one hashing pass over p, never
	// memoized on the module: passes mutate bodies in place.
	for _, pl := range pp.leaves {
		fp, ok := digests[pl.name]
		if !ok {
			return nil, fmt.Errorf("core: no digest for leaf %s", pl.name)
		}
		pl.fp = fp
	}
	bodies := make(map[ir.Fingerprint]*leafBody, len(pp.leaves))
	for _, pl := range pp.leaves {
		if pl.body = bodies[pl.fp]; pl.body == nil {
			pl.body = &leafBody{name: pl.name, fp: pl.fp, mod: pl.mod, size: pl.mod.MaterializedSize()}
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
// width k (see rederive; nothing is logged), and Modules is sorted by
// name. Totals denormalizes m so the report is self-contained.
func BuildReport(ctx context.Context, p *ir.Program, benchmark string, m *Metrics, opts EvalOptions) (*report.Report, error) {
	pp, err := prepare(p, p.Digests().Modules, nil)
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

// engine is one variant of an evaluation: a prepared program under one
// set of EvalOptions.
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
	// leaves is the characterization of every distinct leaf body, in
	// pp.bodies order.
	leaves []*leafState
}

// engObs is the engine's pre-resolved observability handles: the tracer
// plus every instrument it updates, looked up once per run so the hot
// path never touches the registry's name map. All fields may be nil
// (instrument methods no-op on nil receivers).
type engObs struct {
	tr *obs.Tracer

	tasks      *obs.Counter // (body, width) points characterized
	schedFresh *obs.Counter // schedules computed (cache misses)
	schedSteps *obs.Counter // timesteps across fresh schedules
	commFresh  *obs.Counter // movement profiles priced (comm misses)
	commGlobal *obs.Counter // teleports across fresh pricings
	commLocal  *obs.Counter // local moves across fresh pricings
	commStall  *obs.Counter // EPR-stall overhead cycles across fresh pricings
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

func newEngine(ctx context.Context, pp *prepared, opts EvalOptions) *engine {
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
		pp:     pp,
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

// leafState carries one distinct leaf body through one variant: its
// critical path, a pre-assigned result slot per width and, when the run
// logs decisions, a buffer per freshly scheduled width.
type leafState struct {
	*leafBody
	e         *engine
	cp        int64
	slots     []commEntry
	decisions []*obs.DecisionLog
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

// leafPoint is one (variant, body, width) point of a characterization.
type leafPoint struct {
	ls   *leafState
	wi   int
	v    int // variant
	rank int // position in (variant, body, width) order
	// cps, on variant 0's first width of a body, is every variant's
	// state of that body: the point looks up their critical paths, in
	// variant order.
	cps []*leafState
}

// leafTask is one pool task: every point sharing one schedule key, in
// variant order, so the first schedules on a miss and the rest find its
// movement profile.
type leafTask struct {
	points []leafPoint
	size   int64 // the body's materialized op count: claim order
}

// characterizeLeaves fills every engine's leaf slots on one worker
// pool. The engines are the variants of one evaluation over one
// prepared program; their (body, width) points group into one task per
// schedule key, and tasks are claimed largest body first, so the long
// schedules start early and the short ones fill the tail. Each point
// traces a span on its worker slot's track (tid = slot + 1; tid 0 is
// the coordinating goroutine), so the trace shows pool utilization as a
// timeline; a running-task high-water mark and the unclaimed-queue
// depth feed the registry.
//
// Per cache key, the lookups and fills happen in the order the
// variants run one after another, whatever the worker count: a task's
// points run in variant order, and variant 0's first width of a body
// looks up every variant's critical path of that body. So every cache
// counter and fresh-work counter is what that serial order gives. On
// failure it returns the variant and error of the lowest failing point
// in (variant, body, width) order, the error the serial order returns:
// a task whose points all rank above a failed one is skipped, any other
// runs. On cancellation it returns variant 0 and the context's error;
// otherwise len(engines) and nil.
func characterizeLeaves(ctx context.Context, engines []*engine, workers int) (int, error) {
	pp := engines[0].pp
	logging := engines[0].opts.Obs.D().Enabled(obs.LevelStep)
	var tasks []leafTask
	byKey := make(map[schedKey]int)
	cpAt := make([][2]int, len(pp.bodies)) // (task, point) of variant 0's first width
	rank := 0
	for v, e := range engines {
		e.leaves = make([]*leafState, len(pp.bodies))
		for bi, b := range pp.bodies {
			ls := &leafState{leafBody: b, e: e, slots: make([]commEntry, len(e.widths))}
			if logging {
				ls.decisions = make([]*obs.DecisionLog, len(e.widths))
			}
			e.leaves[bi] = ls
			for wi, w := range e.widths {
				sk := schedKey{fp: b.fp, config: e.cfg, w: w, d: e.opts.D}
				ti, ok := byKey[sk]
				if !ok {
					ti = len(tasks)
					byKey[sk] = ti
					tasks = append(tasks, leafTask{size: b.size})
				}
				if v == 0 && wi == 0 {
					cpAt[bi] = [2]int{ti, len(tasks[ti].points)}
				}
				tasks[ti].points = append(tasks[ti].points, leafPoint{ls: ls, wi: wi, v: v, rank: rank})
				rank++
			}
		}
	}
	for bi, at := range cpAt {
		cps := make([]*leafState, len(engines))
		for v, e := range engines {
			cps[v] = e.leaves[bi]
		}
		tasks[at[0]].points[at[1]].cps = cps
	}
	slices.SortStableFunc(tasks, func(a, b leafTask) int { return cmp.Compare(b.size, a.size) })

	eo := engines[0].eo
	if eo.tr.Enabled() {
		eo.tr.SetThreadName(0, "main")
		for s := 0; s < min(workers, len(tasks)); s++ {
			eo.tr.SetThreadName(int64(s+1), fmt.Sprintf("worker-%02d", s))
		}
	}
	lsp := eo.tr.Span("engine", "characterize-leaves")
	lsp.SetInt("variants", int64(len(engines)))
	lsp.SetInt("leaves", int64(len(pp.leaves)))
	lsp.SetInt("bodies", int64(len(pp.bodies)))
	lsp.SetInt("points", int64(rank))
	lsp.SetInt("tasks", int64(len(tasks)))
	defer lsp.End()

	failed := make([]*leafPoint, len(tasks)) // each task's failing point
	errs := make([]error, len(tasks))
	var lowest atomic.Int64 // rank of the lowest failing point so far
	lowest.Store(int64(rank))
	var running atomic.Int64
	err := runTasks(ctx, len(tasks), workers, func(slot, ti int) error {
		eo.queueDepth.Set(int64(len(tasks) - 1 - ti))
		eo.workersPeak.Max(running.Add(1))
		defer running.Add(-1)
		for i := range tasks[ti].points {
			pt := &tasks[ti].points[i]
			if int64(pt.rank) > lowest.Load() {
				return nil
			}
			if err := pt.ls.e.characterize(pt, slot); err != nil {
				failed[ti], errs[ti] = pt, err
				for cur := lowest.Load(); int64(pt.rank) < cur && !lowest.CompareAndSwap(cur, int64(pt.rank)); cur = lowest.Load() {
				}
				return nil
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for ti, pt := range failed {
		if pt != nil && int64(pt.rank) == lowest.Load() {
			return pt.v, errs[ti]
		}
	}
	return len(engines), nil
}

// characterize fills one point's width slot, consulting the cache
// layers outermost-first: a comm hit is free; a schedule-layer hit
// prices its movement profile under this run's options; a miss
// schedules, profiles and prices, then populates both layers and
// releases the schedule's slabs to the next one. The point traces a
// span on the worker slot's track, annotated with which layer served
// it.
func (e *engine) characterize(pt *leafPoint, slot int) error {
	ls, wi := pt.ls, pt.wi
	e.eo.tasks.Inc()
	var sp obs.Span
	if e.eo.tr.Enabled() {
		sp = e.eo.tr.SpanTID("leaf", fmt.Sprintf("%s w=%d", ls.name, e.widths[wi]), int64(slot+1))
	}
	err := e.characterizeIn(pt, &sp)
	sp.End()
	if err != nil {
		return fmt.Errorf("core: module %s: %w", ls.name, err)
	}
	return nil
}

// characterizeIn is characterize's body, annotating sp.
func (e *engine) characterizeIn(pt *leafPoint, sp *obs.Span) error {
	ls, wi := pt.ls, pt.wi
	for _, l := range pt.cps {
		cp, ok := l.e.cache.criticalPath(l.fp, l.e.rec)
		if !ok {
			_, g, err := e.pp.graph(l.leafBody)
			if err != nil {
				return err
			}
			cp = int64(g.CriticalPath())
			l.e.cache.putCriticalPath(l.fp, cp)
		}
		l.cp = cp
	}

	w := e.widths[wi]
	sk := schedKey{fp: ls.fp, config: e.cfg, w: w, d: e.opts.D}
	ck := commKey{sk: sk, comm: e.comm}
	if ce, ok := e.cache.commResult(ck, e.rec); ok {
		sp.SetStr("cache", "comm-hit")
		ls.slots[wi] = ce
		return nil
	}
	mv, ok := e.cache.movement(sk, e.rec)
	if !ok {
		sp.SetStr("cache", "miss")
		mat, g, err := e.pp.graph(ls.leafBody)
		if err != nil {
			return err
		}
		sched := e.sched
		if ls.decisions != nil {
			ls.decisions[wi] = e.opts.Obs.D().Buffer()
			sched = WithDecisionLog(sched, ls.decisions[wi])
		}
		s, err := sched.Schedule(mat, g, w, e.opts.D)
		if err != nil {
			return err
		}
		if mv, err = comm.NewMovement(s); err != nil {
			return err
		}
		e.cache.putMovement(sk, s, mv)
		e.eo.schedFresh.Inc()
		e.eo.schedSteps.Add(int64(len(s.Steps)))
		if e.eo.opsPerStep != nil {
			var b obs.HistBatch
			for _, st := range s.Steps {
				b.Observe(int64(st.Ops()))
			}
			e.eo.opsPerStep.Add(&b)
		}
		s.Release()
	} else {
		sp.SetStr("cache", "sched-hit")
	}
	sum := mv.Price(e.comm)
	e.eo.commFresh.Inc()
	e.eo.commGlobal.Add(sum.GlobalMoves)
	e.eo.commLocal.Add(sum.LocalMoves)
	e.eo.commStall.Add(sum.StallCycles)
	sp.SetInt("steps", int64(mv.Length()))
	sp.SetInt("cycles", sum.Cycles)
	sp.SetInt("global_moves", sum.GlobalMoves)
	sp.SetInt("local_moves", sum.LocalMoves)
	sp.SetInt("stall_cycles", sum.StallCycles)
	ce := entryOf(mv.Length(), sum)
	e.cache.putCommResult(ck, ce)
	ls.slots[wi] = ce
	return nil
}

// logDecisions appends the variant's decision buffers to Obs.Decisions
// in (body, width) order: what one worker logs.
func (e *engine) logDecisions() {
	dlog := e.opts.Obs.D()
	if !dlog.Enabled(obs.LevelStep) {
		return
	}
	id := obs.RequestID(e.ctx)
	for _, ls := range e.leaves {
		for _, b := range ls.decisions {
			dlog.Append(b, id)
		}
	}
}

// compose evaluates every reachable non-leaf module over the variant's
// characterized leaves, bottom-up, and reads the entry module's best
// dims at k. Composition consumes child dims, so it runs serially in
// topological order. It is not free — its cost grows with module count
// times widths — so evalNonLeaf builds one coarse plan per (module,
// cost model) and re-runs only the placer per width. slot is the
// worker slot running it, whose track its spans go on.
func (e *engine) compose(p *ir.Program, slot int) (*Metrics, error) {
	tid := int64(slot + 1)
	csp := e.eo.tr.SpanTID("engine", "compose", tid)
	csp.SetInt("k", int64(e.opts.K))
	csp.SetStr("scheduler", e.sched.Name())
	defer csp.End()
	evals := make(map[string]*moduleEval, len(e.pp.order))
	byBody := make(map[*leafBody]*moduleEval, len(e.leaves))
	for _, ls := range e.leaves {
		byBody[ls.leafBody] = ls.assemble(e.widths)
	}
	for _, pl := range e.pp.leaves {
		evals[pl.name] = byBody[pl.body]
	}
	for _, name := range e.pp.order {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		mod := p.Modules[name]
		if mod.IsLeaf() {
			continue
		}
		var msp obs.Span
		if e.eo.tr.Enabled() {
			msp = e.eo.tr.SpanTID("compose", name, tid)
		}
		ev, err := evalNonLeaf(mod, e.widths, evals, e.eo.tr, tid)
		msp.End()
		if err != nil {
			return nil, fmt.Errorf("core: module %s: %w", name, err)
		}
		evals[name] = ev
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
	m := &Metrics{
		TotalGates:    e.pp.totalGates,
		MinQubits:     e.pp.minQubits,
		Modules:       len(e.pp.order),
		Leaves:        len(e.pp.leaves),
		CriticalPath:  entry.cp,
		ZeroCommSteps: zeroLen,
		CommCycles:    commLen,
		GlobalMoves:   entry.globals,
		LocalMoves:    entry.locals,
		SeqCycles:     e.pp.totalGates,
		NaiveCycles:   comm.NaiveCycles(e.pp.totalGates),
	}
	if err := m.checkCounts(); err != nil {
		return nil, err
	}
	csp.SetInt("comm_cycles", m.CommCycles)
	return m, nil
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
