// Package obs is the toolflow's zero-dependency observability layer:
// span tracing, a metrics registry, and leveled scheduler decision logs.
//
// Everything in the package follows one discipline: the disabled path is
// a nil pointer and every method is nil-safe, so instrumented code calls
// straight through — `tracer.Span(...)`, `counter.Add(1)`,
// `log.Enabled(lvl)` — without guarding, and a disabled run pays only a
// nil check and allocates nothing (see the AllocsPerRun guards in the
// tests). Instrumentation that must format strings or walk data to
// build a record gates itself behind Tracer.Enabled / DecisionLog.Enabled.
//
// The three pillars:
//
//   - Tracer emits hierarchical wall-clock spans serialized as Chrome
//     trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
//     chrome://tracing. Worker-pool spans carry the goroutine slot as
//     their tid, so fan-out utilization reads as a timeline.
//   - Registry holds named counters, gauges and power-of-two-bucket
//     histograms, snapshot as expvar-style JSON or served in Prometheus
//     text format over HTTP.
//   - DecisionLog records why a scheduler deferred or placed an op, at
//     step or op granularity, so schedule regressions are diagnosable.
//
// Observer bundles the three so pipeline options carry one pointer.
package obs

// Observer bundles the observability sinks threaded through the
// toolflow. A nil *Observer (the default) disables everything; any
// subset of fields may be set.
type Observer struct {
	// Trace receives hierarchical spans (nil = tracing off).
	Trace *Tracer
	// Metrics receives counters, gauges and histograms (nil = off).
	Metrics *Registry
	// Decisions receives scheduler introspection records (nil = off),
	// appended by an evaluation in task order once its tasks have run.
	Decisions *DecisionLog
}

// T returns the tracer, nil-safe on a nil Observer.
func (o *Observer) T() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

// M returns the metrics registry, nil-safe on a nil Observer.
func (o *Observer) M() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// D returns the decision log, nil-safe on a nil Observer.
func (o *Observer) D() *DecisionLog {
	if o == nil {
		return nil
	}
	return o.Decisions
}
