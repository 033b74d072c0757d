package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/scaffold-go/multisimd/internal/core"
)

// spanLayers are the spans whose self time is reported per op as
// <name>.ms_per_op.
var spanLayers = []string{
	"parser", "sema", "lower", "decompose", "flatten",
	"ir.fingerprint", "ir.materialize", "dag.build",
	"lpfs.schedule", "rcp.schedule", "comm.analyze",
	"resource", "coarse.schedule",
}

// traceReport gathers what every traced run reports besides its
// workload-specific numbers.
type traceReport struct {
	t          *tracer
	ops        int
	untraced   time.Duration // summed op wall of the untraced phase
	counts     replayCounts
	inlined    int64         // flatten.Stats.InlinedCallOps, summed
	evalWall   time.Duration // the program's own Evaluate wall, summed
	explained  time.Duration // the part of the op wall that named layers account for
	cache      core.CacheStats
	cacheMemMB float64
	mem        memSample // runtime delta of the untraced phase
}

// newTraceReport starts a traced run's report from its untraced timed
// phase: the ops' summed wall, runtime counters and cache traffic.
func newTraceReport(o *outcome, cache core.CacheStats, cacheMemMB float64) *traceReport {
	tr := &traceReport{t: newTracer(), ops: len(o.lat), mem: o.mem, cache: cache, cacheMemMB: cacheMemMB}
	for _, l := range o.lat {
		tr.untraced += time.Duration(l * float64(time.Millisecond))
	}
	return tr
}

// finish writes the trace and the self-time table and returns the
// per-layer metrics shared by all workloads.
func (r *traceReport) finish(c config) (map[string]metric, error) {
	path := filepath.Join(c.outDir, fmt.Sprintf("trace-%s-seed%d.json", c.workload, c.seed))
	if err := r.t.writePerfetto(path); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	stats := selfTimes(r.t.spans)
	fmt.Printf("trace: %d spans over %d ops written to %s (Perfetto / chrome://tracing JSON)\n", len(r.t.spans), r.ops, path)
	writeTable(os.Stdout, stats, r.ops)
	ops := float64(r.ops)
	m := map[string]metric{}
	for _, name := range spanLayers {
		var self time.Duration
		if st := stats[name]; st != nil {
			self = st.self
		}
		m[name+".ms_per_op"] = metric{ms(self) / ops, "ms"}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// A layer with no lookups missed nothing: its hit ratio reads 1.
	hit := func(h, miss int64) float64 {
		if h+miss == 0 {
			return 1
		}
		return float64(h) / float64(h+miss)
	}
	// Coverage: the share of the traced ops' wall that the layers
	// explain (set by the workload from its replay). Overhead: traced op
	// wall against the same ops' untraced wall, which on a shared host
	// also carries the drift between the two phases.
	var opWall time.Duration
	for _, s := range r.t.spans {
		if s.name == "op" {
			opWall += s.end - s.start
		}
	}
	coverage := ratio(float64(r.explained), float64(opWall))
	overhead := ratio(float64(opWall), float64(r.untraced)) - 1
	fmt.Printf("trace: layers explain %.1f%% of the traced op wall (%.1f%% of the untraced); traced ops run %+.1f%% against untraced\n",
		100*coverage, 100*ratio(float64(r.explained), float64(r.untraced)), 100*overhead)
	for k, v := range map[string]metric{
		"flatten.inlined_call_ops":    {float64(r.inlined) / ops, "count"},
		"ir.materialized_ops":         {float64(r.counts.materializedOps) / ops, "count"},
		"schedule.steps_per_op":       {float64(r.counts.steps) / ops, "count"},
		"comm.global_moves_per_op":    {float64(r.counts.globalMoves) / ops, "count"},
		"coarse.calls_per_op":         {float64(r.counts.coarseCalls) / ops, "count"},
		"core.evaluate.ms_per_op":     {ms(r.evalWall) / ops, "ms"},
		"core.engine_overlap":         {ratio(float64(childTime(r.t.spans, "replay.evaluate")), float64(r.evalWall)), "ratio"},
		"core.cache.comm_hit_ratio":   {hit(r.cache.CommHits, r.cache.CommMisses), "ratio"},
		"core.cache.sched_hit_ratio":  {hit(r.cache.SchedHits, r.cache.SchedMisses), "ratio"},
		"core.cache.evictions_per_op": {float64(r.cache.MemEvictions) / ops, "count"},
		"core.cache.mem_mb":           {r.cacheMemMB, "MB"},
		"runtime.alloc_mb_per_op":     {float64(r.mem.allocBytes) / (1 << 20) / ops, "MB"},
		"runtime.gc_cycles_per_op":    {float64(r.mem.gcCycles) / ops, "count"},
		"runtime.gc_pause_ms_per_op":  {float64(r.mem.pauseNS) / 1e6 / ops, "ms"},
		"trace.coverage":              {coverage, "ratio"},
		"trace.overhead":              {overhead, "ratio"},
	} {
		m[k] = v
	}
	return m, nil
}

// childTime sums the durations of the direct children of spans named
// parent.
func childTime(spans []span, parent string) time.Duration {
	var total time.Duration
	for _, s := range spans {
		if s.parent >= 0 && spans[s.parent].name == parent {
			total += s.end - s.start
		}
	}
	return total
}

// layerTime sums the durations of the spans named in spanLayers. Those
// spans never nest in one another, so this is also their self time.
func layerTime(spans []span) time.Duration {
	var total time.Duration
	for _, s := range spans {
		if slices.Contains(spanLayers, s.name) {
			total += s.end - s.start
		}
	}
	return total
}
