package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracer collects wall-clock spans and serializes them in the Chrome
// trace-event format (the "JSON Array Format" with a traceEvents
// wrapper), which Perfetto and chrome://tracing load directly.
//
// A nil *Tracer is the disabled tracer: Span returns the zero Span,
// whose methods all no-op, and nothing allocates. Span creation and End
// are safe for concurrent use; the engine's worker pool traces each
// task under the worker's slot id (tid), so the trace viewer renders
// pool utilization as parallel tracks.
//
// Retention is bounded: past the limit, events are counted (Dropped)
// instead of kept, mirroring DecisionLog — a long-lived service request
// that spins must not grow the heap without bound.
type Tracer struct {
	mu      sync.Mutex
	start   time.Time
	now     func() time.Time
	limit   int
	events  []TraceEvent
	dropped int64
	names   map[int64]string
}

// DefaultTraceLimit caps NewTracer's event retention. One event is
// ~100 bytes; a million keeps any realistic request trace whole while
// bounding the pathological ones (the same sizing argument as
// DefaultDecisionLimit).
const DefaultTraceLimit = 1 << 20

// TraceEvent is one Chrome trace-event record, the one shape of every
// trace the toolflow writes: a Tracer's and a postmortem bundle's.
// Complete spans use ph "X" with ts/dur in microseconds; instants use
// ph "i"; metadata (thread and process names) ph "M".
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// NewTracer returns an enabled tracer whose timestamps are relative to
// now, retaining at most DefaultTraceLimit events.
func NewTracer() *Tracer { return newTracerClock(time.Now) }

// newTracerClock injects the clock, for deterministic golden tests.
func newTracerClock(now func() time.Time) *Tracer {
	return &Tracer{start: now(), now: now, limit: DefaultTraceLimit, names: map[int64]string{}}
}

// Enabled reports whether spans are being collected. Call sites that
// must format a span name or gather args check this first so the
// disabled path does no work.
func (t *Tracer) Enabled() bool { return t != nil }

func (t *Tracer) since() int64 {
	return t.now().Sub(t.start).Microseconds()
}

// Span opens a span on the main track (tid 0). cat groups spans for the
// viewer's filtering ("pipeline", "engine", "leaf", ...).
func (t *Tracer) Span(cat, name string) Span { return t.SpanTID(cat, name, 0) }

// SpanTID opens a span on an explicit track. The engine uses
// tid = worker slot + 1, keeping tid 0 for the coordinating goroutine.
func (t *Tracer) SpanTID(cat, name string, tid int64) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, cat: cat, name: name, tid: tid, start: t.since()}
}

// Instant records a zero-duration marker (rendered as an arrow/flag).
func (t *Tracer) Instant(cat, name string, tid int64) {
	if t == nil {
		return
	}
	ev := TraceEvent{Name: name, Cat: cat, Ph: "i", TS: t.since(), PID: tracePID, TID: tid, S: "t"}
	t.mu.Lock()
	t.appendLocked(ev)
	t.mu.Unlock()
}

// appendLocked records ev, or only counts it past the retention limit:
// the head of a trace is the part that explains a run, and a bounded
// buffer cannot keep both ends. Caller holds t.mu.
func (t *Tracer) appendLocked(ev TraceEvent) {
	if t.limit > 0 && len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Dropped reports how many events the retention limit discarded.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SetThreadName labels a track in the viewer ("main", "worker-03", ...).
func (t *Tracer) SetThreadName(tid int64, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.names[tid] = name
	t.mu.Unlock()
}

// tracePID is the constant pid stamped on every event: the toolflow is
// one process, so one trace-viewer process group.
const tracePID = 1

// Span is one open trace span. The zero Span (from a nil Tracer) is
// inert: SetInt, SetStr and End are no-ops and allocate nothing.
type Span struct {
	t     *Tracer
	cat   string
	name  string
	tid   int64
	start int64
	args  map[string]any
}

// SetInt attaches an integer arg, shown in the viewer's detail pane.
func (s *Span) SetInt(key string, v int64) {
	if s.t == nil {
		return
	}
	if s.args == nil {
		s.args = make(map[string]any, 4)
	}
	s.args[key] = v
}

// SetStr attaches a string arg.
func (s *Span) SetStr(key, v string) {
	if s.t == nil {
		return
	}
	if s.args == nil {
		s.args = make(map[string]any, 4)
	}
	s.args[key] = v
}

// End closes the span and records it.
func (s *Span) End() {
	if s.t == nil {
		return
	}
	end := s.t.since()
	dur := end - s.start
	if dur < 1 {
		dur = 1 // Perfetto drops zero-length complete events
	}
	ev := TraceEvent{
		Name: s.name, Cat: s.cat, Ph: "X",
		TS: s.start, Dur: dur, PID: tracePID, TID: s.tid, Args: s.args,
	}
	s.t.mu.Lock()
	s.t.appendLocked(ev)
	s.t.mu.Unlock()
	s.t = nil
}

// TraceFile is the serialized wrapper object: a Perfetto-loadable trace.
type TraceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []TraceEvent `json:"traceEvents"`
}

// WriteTo serializes the collected events as Chrome trace-event JSON.
// Thread-name metadata events come first (sorted by tid), then spans in
// completion order; viewers sort by timestamp themselves.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	if t == nil {
		return 0, nil
	}
	t.mu.Lock()
	tids := make([]int64, 0, len(t.names))
	for tid := range t.names {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	events := make([]TraceEvent, 0, len(t.names)+len(t.events))
	for _, tid := range tids {
		events = append(events, TraceEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: tid,
			Args: map[string]any{"name": t.names[tid]},
		})
	}
	events = append(events, t.events...)
	if t.dropped > 0 {
		// The "# dropped" trailer, as a metadata event so the file stays
		// valid Perfetto-loadable JSON (DecisionLog's text trailer has no
		// legal place inside a JSON array).
		events = append(events, TraceEvent{
			Name: fmt.Sprintf("# dropped %d events past the %d-event limit", t.dropped, t.limit),
			Ph:   "M", PID: tracePID,
		})
	}
	t.mu.Unlock()

	buf, err := json.MarshalIndent(TraceFile{DisplayTimeUnit: "ms", TraceEvents: events}, "", " ")
	if err != nil {
		return 0, err
	}
	buf = append(buf, '\n')
	n, err := w.Write(buf)
	return int64(n), err
}

// WriteFile serializes the trace to path.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// PhaseSummary aggregates the completed spans sharing one
// (category, name) pair: how many ran and their total wall-clock. It is
// the compact per-phase breakdown a slow-request log line carries —
// small enough to inline in a log record, detailed enough to say where
// the time went (parse vs schedule vs comm).
type PhaseSummary struct {
	Cat   string  `json:"cat"`
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	MS    float64 `json:"ms"`
}

// SpanEvent is one completed span, the exported shape handed to the
// flight recorder and rebuilt into Perfetto trace fragments by
// postmortem bundles.
type SpanEvent struct {
	Cat  string `json:"cat,omitempty"`
	Name string `json:"name"`
	// TSUS/DurUS are start offset and duration in microseconds.
	TSUS  int64 `json:"ts_us"`
	DurUS int64 `json:"dur_us"`
	TID   int64 `json:"tid,omitempty"`
}

// Events copies the completed spans (instants and metadata excluded) in
// completion order. Nil tracer returns nil.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanEvent, 0, len(t.events))
	for i := range t.events {
		ev := &t.events[i]
		if ev.Ph != "X" {
			continue
		}
		out = append(out, SpanEvent{Cat: ev.Cat, Name: ev.Name, TSUS: ev.TS, DurUS: ev.Dur, TID: ev.TID})
	}
	return out
}

// Phases folds the recorded spans into per-(cat, name) totals, ordered
// by total duration descending. max bounds the rows (0 = unbounded);
// the overflow is folded into a final "(other)" row per category so the
// summary always accounts for all recorded time. Instants (zero-length
// markers) are excluded. Nil tracer returns nil.
func (t *Tracer) Phases(max int) []PhaseSummary {
	if t == nil {
		return nil
	}
	return AggregatePhases(t.Events(), max)
}

// AggregatePhases is Phases over an explicit span list: the same
// fold, exposed so a postmortem bundle's trace fragment can be replayed
// into exactly the aggregation the access log carried.
func AggregatePhases(events []SpanEvent, max int) []PhaseSummary {
	type key struct{ cat, name string }
	agg := make(map[key]*PhaseSummary)
	var order []key
	for i := range events {
		ev := &events[i]
		k := key{ev.Cat, ev.Name}
		p := agg[k]
		if p == nil {
			p = &PhaseSummary{Cat: ev.Cat, Name: ev.Name}
			agg[k] = p
			order = append(order, k)
		}
		p.Count++
		p.MS += float64(ev.DurUS) / 1000
	}

	out := make([]PhaseSummary, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MS != out[j].MS {
			return out[i].MS > out[j].MS
		}
		if out[i].Cat != out[j].Cat {
			return out[i].Cat < out[j].Cat
		}
		return out[i].Name < out[j].Name
	})
	if max > 0 && len(out) > max {
		rest := map[string]*PhaseSummary{}
		var restOrder []string
		for _, p := range out[max:] {
			o := rest[p.Cat]
			if o == nil {
				o = &PhaseSummary{Cat: p.Cat, Name: "(other)"}
				rest[p.Cat] = o
				restOrder = append(restOrder, p.Cat)
			}
			o.Count += p.Count
			o.MS += p.MS
		}
		out = out[:max:max]
		sort.Strings(restOrder)
		for _, cat := range restOrder {
			out = append(out, *rest[cat])
		}
	}
	return out
}

// Len reports the number of recorded events (metadata excluded).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}
