package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestTracerCap pins the retention contract: past the limit, events are
// counted instead of kept, WriteTo appends a "# dropped" trailer (as a
// metadata event, keeping the file Perfetto-loadable), and the head of
// the trace survives intact — mirroring DecisionLog.
func TestTracerCap(t *testing.T) {
	tr := NewTracerLimit(3)
	for i := 0; i < 7; i++ {
		sp := tr.Span("phase", fmt.Sprintf("step-%d", i))
		sp.End()
	}
	if got := tr.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := tr.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
	// The head is kept, the tail counted.
	evs := tr.Events()
	if len(evs) != 3 || evs[0].Name != "step-0" || evs[2].Name != "step-2" {
		t.Fatalf("kept events = %+v", evs)
	}

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	// The trailer must ride inside valid trace JSON.
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace with trailer is not valid JSON: %v", err)
	}
	last := f.TraceEvents[len(f.TraceEvents)-1]
	if last.Ph != "M" || last.Name != "# dropped 4 events past the 3-event limit" {
		t.Fatalf("trailer event = %+v", last)
	}
}

func TestTracerNoTrailerUnderCap(t *testing.T) {
	tr := NewTracerLimit(10)
	sp := tr.Span("phase", "only")
	sp.End()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("# dropped")) {
		t.Fatalf("trailer present without drops:\n%s", buf.String())
	}
}

func TestTracerDefaultLimit(t *testing.T) {
	tr := NewTracer()
	if tr.limit != DefaultTraceLimit {
		t.Fatalf("NewTracer limit = %d, want %d", tr.limit, DefaultTraceLimit)
	}
	if tr := NewTracerLimit(0); tr.limit != 0 {
		t.Fatalf("NewTracerLimit(0) limit = %d, want 0 (unbounded)", tr.limit)
	}
}

// TestPhasesMatchAggregateEvents pins that the log-line aggregation and
// the replay path (AggregatePhases over Events) are the same fold.
func TestPhasesMatchAggregateEvents(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 5; i++ {
		sp := tr.SpanTID("phase", "schedule", int64(i%2))
		sp.End()
	}
	sp := tr.Span("engine", "comm")
	sp.End()
	direct := tr.Phases(12)
	replayed := AggregatePhases(tr.Events(), 12)
	if !reflect.DeepEqual(direct, replayed) {
		t.Fatalf("Phases = %+v, AggregatePhases(Events) = %+v", direct, replayed)
	}
	if len(direct) != 2 {
		t.Fatalf("phases = %+v, want 2 rows", direct)
	}
}

// NewTracerLimit returns a tracer retaining at most limit events
// (<= 0: unbounded). Events past the limit are counted, not kept.
func NewTracerLimit(limit int) *Tracer {
	t := newTracerClock(time.Now)
	t.limit = limit
	return t
}
