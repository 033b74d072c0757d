package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. A span's id is its index in the tracer's spans.
// Spans of one operation share op; parent is the id of the span that
// caused this one (-1 for an operation's roots).
type span struct {
	id, parent int
	op, lane   int
	name       string
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory; write dumps them once, at the end.
// Safe for concurrent use by several client goroutines.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, op, lane int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, lane: lane, name: name, start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// layerStat aggregates every span of one name.
type layerStat struct {
	name  string
	calls int
	self  time.Duration
	wall  time.Duration
}

// selfTimes returns each span name's call count, wall time and self
// time. A span's self time is its duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[string]*layerStat {
	children := map[int][]int{}
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.id)
		}
	}
	out := map[string]*layerStat{}
	for _, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &layerStat{name: s.name}
			out[s.name] = st
		}
		dur := s.end - s.start
		st.calls++
		st.wall += dur
		st.self += dur - covered(s, children[s.id], spans)
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to parent's interval.
func covered(parent span, kids []int, spans []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, id := range kids {
		c := spans[id]
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeTable prints the per-layer self-time table, largest first.
func writeTable(w io.Writer, stats map[string]*layerStat, ops int) {
	rows := make([]*layerStat, 0, len(stats))
	var total time.Duration
	for _, st := range stats {
		rows = append(rows, st)
		total += st.self
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		return rows[i].name < rows[j].name
	})
	fmt.Fprintf(w, "%-18s %9s %12s %12s %7s\n", "span", "calls", "self_ms", "self_ms/op", "share")
	for _, st := range rows {
		share := 0.0
		if total > 0 {
			share = float64(st.self) / float64(total)
		}
		fmt.Fprintf(w, "%-18s %9d %12.3f %12.4f %6.1f%%\n", st.name, st.calls,
			ms(st.self), ms(st.self)/float64(ops), 100*share)
	}
}

// writePerfetto writes the spans as Chrome trace-event JSON, which
// ui.perfetto.dev and chrome://tracing load directly: one complete
// ("X") event per span, one thread lane per client.
func (t *tracer) writePerfetto(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.lane,
			Args: map[string]int{"id": s.id, "parent": s.parent, "op": s.op},
		})
	}
	data, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf is a span name's module: the part before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
