package telem

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/scaffold-go/multisimd/internal/obs"
)

func TestFlightRecorderRingBound(t *testing.T) {
	r := NewFlightRecorder(3)
	for i := 0; i < 10; i++ {
		r.Record(&obs.RequestRecord{ID: fmt.Sprintf("req-%d", i)})
	}
	if r.Len() != 3 || r.Total() != 10 {
		t.Fatalf("len=%d total=%d, want 3/10", r.Len(), r.Total())
	}
	recent := r.Recent()
	if recent[0].ID != "req-7" || recent[2].ID != "req-9" {
		t.Fatalf("ring kept %v, want the newest 3 oldest-first", recent)
	}
}

func TestFlightRecorderDefaultCap(t *testing.T) {
	r := NewFlightRecorder(0)
	for i := 0; i < DefaultFlightRecords+5; i++ {
		r.Record(&obs.RequestRecord{ID: fmt.Sprintf("r%d", i)})
	}
	if r.Len() != DefaultFlightRecords {
		t.Fatalf("len = %d, want %d", r.Len(), DefaultFlightRecords)
	}
}

func sampleRecord(id string) obs.RequestRecord {
	return obs.RequestRecord{
		ID: id, Endpoint: "compile", Status: 200, DurMS: 12.5,
		Spans: []obs.SpanEvent{
			{Cat: "phase", Name: "parse", TSUS: 0, DurUS: 100, TID: 1},
			{Cat: "phase", Name: "schedule", TSUS: 100, DurUS: 400, TID: 1},
			{Cat: "phase", Name: "schedule", TSUS: 500, DurUS: 200, TID: 2},
		},
	}
}

func TestBuildBundleTraceLayout(t *testing.T) {
	trig := sampleRecord("trigger-1")
	other := sampleRecord("other-2")
	b := BuildBundle("qschedd", "slow", "2026-01-01T00:00:00Z", "",
		&trig, []obs.RequestRecord{other, trig}, obs.Snapshot{}, nil)
	if b.Schema != BundleSchemaVersion || b.RequestID != "trigger-1" {
		t.Fatalf("bundle header = %+v", b)
	}
	// pid 1 is the triggering request; its ring duplicate is skipped, so
	// exactly two processes render.
	pids := map[int64]string{}
	for _, e := range b.Trace.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			pids[e.PID], _ = e.Args["request_id"].(string)
		}
	}
	if len(pids) != 2 || pids[1] != "trigger-1" || pids[2] != "other-2" {
		t.Fatalf("trace processes = %v", pids)
	}
	if b.Trace.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", b.Trace.DisplayTimeUnit)
	}
}

// TestBundleReplaysAccessLogAggregation is the postmortem contract: the
// spans a bundle carries for a request fold into exactly the per-phase
// aggregation the access log showed for it.
func TestBundleReplaysAccessLogAggregation(t *testing.T) {
	rec := sampleRecord("req-x")
	rec.Phases = obs.AggregatePhases(rec.Spans, 12) // what the access log logs
	b := BuildBundle("qschedd", "slow", "", "", &rec, nil, obs.Snapshot{}, nil)
	replayed := obs.AggregatePhases(requestEvents(b, "req-x"), 12)
	if !reflect.DeepEqual(replayed, rec.Phases) {
		t.Fatalf("replayed phases = %+v, access log had %+v", replayed, rec.Phases)
	}
	if got := requestEvents(b, "absent"); got != nil {
		t.Fatalf("unknown request id returned %+v", got)
	}
}

func TestWriteBundleRoundTripAndPrune(t *testing.T) {
	dir := t.TempDir()
	rec := sampleRecord("req-1")
	b := BuildBundle("qschedd", "manual", "2026-01-01T00:00:00Z", "req-1",
		nil, []obs.RequestRecord{rec}, obs.Snapshot{}, []byte(`{"queued":0}`))
	path, err := WriteBundle(dir, b, time.UnixMilli(1000))
	if err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	got, err := ReadBundle(path)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if got.Trigger != "manual" || got.RequestID != "req-1" || len(got.Recent) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
	var state struct {
		Queued *int `json:"queued"`
	}
	if err := json.Unmarshal(got.State, &state); err != nil || state.Queued == nil || *state.Queued != 0 {
		t.Fatalf("state = %s (err %v)", got.State, err)
	}

	// Writing past MaxBundles prunes oldest-first.
	for i := 0; i < MaxBundles+4; i++ {
		if _, err := WriteBundle(dir, b, time.UnixMilli(int64(2000+i))); err != nil {
			t.Fatalf("WriteBundle %d: %v", i, err)
		}
	}
	left, err := filepath.Glob(filepath.Join(dir, "pm-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != MaxBundles {
		t.Fatalf("%d bundles on disk, want %d", len(left), MaxBundles)
	}
	// The very first bundle (oldest name) must be among the pruned.
	for _, p := range left {
		if p == path {
			t.Fatalf("oldest bundle %s survived pruning", path)
		}
	}
}

func TestReadBundleRejectsUnknownSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pm-test.json")
	if err := os.WriteFile(path, []byte(`{"schema":999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(path); err == nil {
		t.Fatal("ReadBundle accepted schema 999")
	}
}

// requestEvents extracts one request's completed spans back out of b's
// trace fragment (resolving its pid via the process_name metadata), in
// the shape obs.AggregatePhases folds.
func requestEvents(b Bundle, id string) []obs.SpanEvent {
	pid := int64(-1)
	for _, e := range b.Trace.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" && e.Args["request_id"] == id {
			pid = e.PID
			break
		}
	}
	if pid < 0 {
		return nil
	}
	var out []obs.SpanEvent
	for _, e := range b.Trace.TraceEvents {
		if e.Ph == "X" && e.PID == pid {
			out = append(out, obs.SpanEvent{Cat: e.Cat, Name: e.Name, TSUS: e.TS, DurUS: e.Dur, TID: e.TID})
		}
	}
	return out
}
