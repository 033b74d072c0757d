package server

import (
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/obs/telem"
	"github.com/scaffold-go/multisimd/internal/request"
)

// openTelem opens a telemetry store in a fresh temp dir, sealing every
// sample so tests never race the in-memory buffer.
func openTelem(t *testing.T, dir string) *telem.Store {
	t.Helper()
	st, err := telem.Open(telem.Options{Dir: dir, SealSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestTelemetryEndpointsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Options{SampleEvery: -1})
	resp, data := get(t, ts.URL+"/v1/metrics/range?name=server.requests")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("range status %d: %s", resp.StatusCode, data)
	}
	var er ErrorResponse
	decodeInto(t, data, &er)
	if er.Error.Code != CodeTelemetryOff {
		t.Fatalf("range error code %q, want %q", er.Error.Code, CodeTelemetryOff)
	}
	resp, data = post(t, ts.URL+"/v1/debug/snapshot", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("snapshot status %d: %s", resp.StatusCode, data)
	}
	decodeInto(t, data, &er)
	if er.Error.Code != CodeTelemetryOff {
		t.Fatalf("snapshot error code %q, want %q", er.Error.Code, CodeTelemetryOff)
	}
}

func TestMetricsRangeQueryAndSeries(t *testing.T) {
	st := openTelem(t, t.TempDir())
	now := time.Now()
	for i := 0; i < 5; i++ {
		st.Append(now.Add(time.Duration(i-5)*time.Second),
			map[string]float64{"server.requests": float64(10 + i), "server.inflight": 1})
	}
	_, ts := newTestServer(t, Options{SampleEvery: -1, Telemetry: st})

	var mr MetricsRangeResponse
	resp, data := get(t, ts.URL+"/v1/metrics/range?name=server.requests")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	decodeInto(t, data, &mr)
	if mr.Schema != TelemetrySchemaVersion || mr.Name != "server.requests" {
		t.Fatalf("envelope = %+v", mr)
	}
	if len(mr.Points) != 5 || mr.Points[4].V != 14 {
		t.Fatalf("points = %+v, want the 5 appended samples", mr.Points)
	}

	// Step folding via the query param (2s buckets over 2s-spaced... here
	// 1s-spaced samples: 2s buckets keep the last of each pair).
	resp, data = get(t, ts.URL+"/v1/metrics/range?name=server.requests&step=2s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	decodeInto(t, data, &mr)
	if len(mr.Points) >= 5 || len(mr.Points) == 0 {
		t.Fatalf("stepped points = %+v, want a folded series", mr.Points)
	}
	if mr.StepMS != 2000 {
		t.Fatalf("step_ms = %d, want 2000", mr.StepMS)
	}

	// Explicit window in unix milliseconds, empty range: points is [],
	// never null.
	from := now.Add(-100 * time.Hour).UnixMilli()
	to := now.Add(-99 * time.Hour).UnixMilli()
	resp, data = get(t, fmt.Sprintf("%s/v1/metrics/range?name=server.requests&from=%d&to=%d", ts.URL, from, to))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), `"points": []`) {
		t.Fatalf("empty range must serialize points as []: %s", data)
	}

	// No name: the series listing.
	resp, data = get(t, ts.URL+"/v1/metrics/range")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	decodeInto(t, data, &mr)
	if !reflect.DeepEqual(mr.Series, []string{"server.inflight", "server.requests"}) {
		t.Fatalf("series = %v", mr.Series)
	}

	// Bad params are bad_request, not 500s.
	for _, q := range []string{"from=nope", "step=-5s", "from=2&to=1", "step=banana"} {
		resp, data = get(t, ts.URL+"/v1/metrics/range?name=x&"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("query %q: status %d: %s", q, resp.StatusCode, data)
		}
	}
}

func TestSnapshotEndpointWritesBundle(t *testing.T) {
	dir := t.TempDir()
	st := openTelem(t, dir)
	_, ts := newTestServer(t, Options{SampleEvery: -1, Telemetry: st})

	// Prime the flight recorder with one real evaluation. RCP logs a
	// decision per scheduled step, so the decisions are never empty here
	// (lpfs only logs refills/deadlocks, which a tiny program has none of).
	resp, data := postWithID(t, ts.URL+"/v1/compile", "prime-1", compileBody(tinySource, "rcp", 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d: %s", resp.StatusCode, data)
	}

	resp, data = postWithID(t, ts.URL+"/v1/debug/snapshot", "snap-1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", resp.StatusCode, data)
	}
	var sr SnapshotResponse
	decodeInto(t, data, &sr)
	if sr.Schema != TelemetrySchemaVersion || sr.Trigger != "manual" || sr.RequestID != "snap-1" || sr.Path == "" {
		t.Fatalf("snapshot response = %+v", sr)
	}
	b, err := telem.ReadBundle(sr.Path)
	if err != nil {
		t.Fatalf("ReadBundle(%s): %v", sr.Path, err)
	}
	if b.Schema != telem.BundleSchemaVersion || b.Trigger != "manual" || b.RequestID != "snap-1" || b.Service != "qschedd" {
		t.Fatalf("bundle header = %+v", b)
	}
	if filepath.Dir(sr.Path) != filepath.Join(dir, "postmortem") {
		t.Fatalf("bundle landed in %s, want under the telemetry dir", sr.Path)
	}
	// The ring (and so the bundle) carries the primed compile, spans,
	// decisions and all — self-contained postmortem context.
	found := false
	for _, rec := range b.Recent {
		if rec.ID == "prime-1" {
			found = true
			if len(rec.Spans) == 0 {
				t.Fatalf("recorded request has no spans: %+v", rec)
			}
			if len(rec.Decisions) == 0 {
				t.Fatalf("recorded request has no decisions: %+v", rec)
			}
		}
	}
	if !found {
		t.Fatalf("bundle recent ring misses the primed request: %+v", b.Recent)
	}
	if len(b.State) == 0 || len(b.Metrics.Counters) == 0 {
		t.Fatal("bundle misses debug state or metrics snapshot")
	}
	// The trace fragment is Perfetto-loadable: complete spans with a
	// duration, and one process_name lane per recorded request.
	lanes := 0
	for _, ev := range b.Trace.TraceEvents {
		switch {
		case ev.PID < 1 || ev.Ph != "M" && (ev.Ph != "X" || ev.Dur <= 0 || ev.Name == ""):
			t.Errorf("trace event is neither metadata nor a complete span: %+v", ev)
		case ev.Ph == "M" && ev.Name == "process_name":
			lanes++
		}
	}
	if b.Trace.DisplayTimeUnit != "ms" || lanes == 0 {
		t.Errorf("trace fragment: unit %q, %d process_name lanes", b.Trace.DisplayTimeUnit, lanes)
	}
}

// waitForBundle polls the postmortem dir until a bundle with the given
// trigger appears.
func waitForBundle(t *testing.T, dir, trigger string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		paths, err := filepath.Glob(filepath.Join(dir, "postmortem", "pm-*-"+trigger+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) > 0 {
			return paths[len(paths)-1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q bundle appeared under %s", trigger, dir)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSlowRequestBundleReplaysAccessLogPhases is the acceptance path:
// a slow request auto-writes a postmortem bundle whose trace fragment
// replays into exactly the per-phase aggregation the access log showed.
func TestSlowRequestBundleReplaysAccessLogPhases(t *testing.T) {
	dir := t.TempDir()
	st := openTelem(t, dir)
	var buf syncBuffer
	_, ts := newTestServer(t, Options{
		SampleEvery:   -1,
		Telemetry:     st,
		AccessLog:     obs.NewAccessLog(&buf),
		SlowThreshold: time.Nanosecond, // every request is "slow"
	})

	resp, data := postWithID(t, ts.URL+"/v1/compile", "slow-1", compileBody(tinySource, "lpfs", 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d: %s", resp.StatusCode, data)
	}
	entry := waitForEntry(t, &buf, "slow-1")
	if !entry.Slow || len(entry.Phases) == 0 {
		t.Fatalf("access entry not slow or phaseless: %+v", entry)
	}

	path := waitForBundle(t, dir, "slow")
	b, err := telem.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger != "slow" || b.RequestID != "slow-1" || b.Request == nil {
		t.Fatalf("bundle header = %+v", b)
	}
	// The triggering request renders as pid 1 of the trace fragment.
	var spans []obs.SpanEvent
	for _, e := range b.Trace.TraceEvents {
		if e.Ph == "X" && e.PID == 1 {
			spans = append(spans, obs.SpanEvent{Cat: e.Cat, Name: e.Name, TSUS: e.TS, DurUS: e.Dur, TID: e.TID})
		}
	}
	replayed := obs.AggregatePhases(spans, maxLogPhases)
	if len(replayed) == 0 || !reflect.DeepEqual(replayed, entry.Phases) {
		t.Fatalf("replayed phases = %+v\naccess log had %+v", replayed, entry.Phases)
	}
	// The fragment is a loadable trace: events carry the Perfetto
	// complete-span shape.
	if b.Trace.DisplayTimeUnit != "ms" || len(b.Trace.TraceEvents) == 0 {
		t.Fatalf("trace fragment = %+v", b.Trace)
	}
}

// TestAutoBundleRateLimit: back-to-back slow requests inside the 10s
// gap produce exactly one automatic bundle.
func TestAutoBundleRateLimit(t *testing.T) {
	dir := t.TempDir()
	st := openTelem(t, dir)
	_, ts := newTestServer(t, Options{
		SampleEvery:   -1,
		Telemetry:     st,
		SlowThreshold: time.Nanosecond,
	})
	for i := 0; i < 4; i++ {
		resp, data := postWithID(t, ts.URL+"/v1/compile", fmt.Sprintf("burst-%d", i), compileBody(tinySource, "lpfs", 2))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile status %d: %s", resp.StatusCode, data)
		}
	}
	waitForBundle(t, dir, "slow")
	paths, err := filepath.Glob(filepath.Join(dir, "postmortem", "pm-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("%d bundles inside the min gap, want 1: %v", len(paths), paths)
	}
}

// TestNoAutoSnapshot: with automatic bundles off, slow requests write
// nothing but POST /v1/debug/snapshot still works.
func TestNoAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := openTelem(t, dir)
	_, ts := newTestServer(t, Options{
		SampleEvery:    -1,
		Telemetry:      st,
		SlowThreshold:  time.Nanosecond,
		NoAutoSnapshot: true,
	})
	resp, data := postWithID(t, ts.URL+"/v1/compile", "quiet-1", compileBody(tinySource, "lpfs", 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d: %s", resp.StatusCode, data)
	}
	if paths, _ := filepath.Glob(filepath.Join(dir, "postmortem", "pm-*.json")); len(paths) != 0 {
		t.Fatalf("auto bundle written despite NoAutoSnapshot: %v", paths)
	}
	resp, data = post(t, ts.URL+"/v1/debug/snapshot", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manual snapshot status %d: %s", resp.StatusCode, data)
	}
}

// TestTelemetryRestartPersistence is the durability acceptance path: a
// second server over the same -telemetry-dir serves the first server's
// history from /v1/metrics/range and renders it on the dashboard.
func TestTelemetryRestartPersistence(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()

	st1 := openTelem(t, dir)
	for i := 0; i < 10; i++ {
		st1.Append(now.Add(time.Duration(i-10)*time.Second), map[string]float64{
			"server.requests":          float64(100 + 7*i),
			"server.inflight":          float64(i % 3),
			"server.queued":            0,
			"runtime.heap_alloc_bytes": float64(20 << 20),
			"runtime.goroutines":       12,
			"server.latency_ms.p95":    8,
		})
	}
	_, ts1 := newTestServer(t, Options{SampleEvery: -1, Telemetry: st1})
	resp, data := get(t, ts1.URL+"/v1/metrics/range?name=server.requests")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-restart status %d: %s", resp.StatusCode, data)
	}
	var before MetricsRangeResponse
	decodeInto(t, data, &before)
	if len(before.Points) != 10 {
		t.Fatalf("pre-restart points = %+v", before.Points)
	}
	st1.Close() // SIGTERM path: seal the tail

	// "Reboot": fresh store and server over the same directory.
	st2 := openTelem(t, dir)
	_, ts2 := newTestServer(t, Options{SampleEvery: -1, Telemetry: st2})
	resp, data = get(t, fmt.Sprintf("%s/v1/metrics/range?name=server.requests&from=%d&to=%d",
		ts2.URL, before.FromMS, before.ToMS))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart status %d: %s", resp.StatusCode, data)
	}
	var after MetricsRangeResponse
	decodeInto(t, data, &after)
	if !reflect.DeepEqual(after.Points, before.Points) {
		t.Fatalf("history diverged across restart:\npre  %+v\npost %+v", before.Points, after.Points)
	}

	// The dashboard's sparklines rebuild from the same persisted store.
	resp, data = get(t, ts2.URL+"/v1/dashboard")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard status %d", resp.StatusCode)
	}
	body := string(data)
	if !strings.Contains(body, "requests/s (last") {
		t.Fatalf("dashboard does not render the telemetry-backed trend:\n%.400s", body)
	}
	if !strings.Contains(body, "telemetry") {
		t.Fatal("dashboard misses the telemetry status rows")
	}

	// Debug state reports the store.
	resp, data = get(t, ts2.URL+"/v1/debug/state")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug state status %d", resp.StatusCode)
	}
	var ds DebugStateResponse
	decodeInto(t, data, &ds)
	if ds.Telemetry == nil || ds.Telemetry.Segments == 0 {
		t.Fatalf("debug state telemetry = %+v", ds.Telemetry)
	}
}

// TestTelemetryDisabledHotPathZeroAlloc guards the per-request cost of
// the always-on flight recorder: with telemetry off, recording a
// finished request into a full ring must not allocate — not even for a
// slow 5xx, which would trigger a postmortem bundle with telemetry on.
func TestTelemetryDisabledHotPathZeroAlloc(t *testing.T) {
	s := New(Options{SampleEvery: -1, SlowThreshold: -1})
	defer s.Close()
	if s.telem != nil {
		t.Fatal("telemetry unexpectedly enabled")
	}
	rec := &obs.RequestRecord{ID: "x", Endpoint: "compile", Status: 500, Slow: true}
	for i := 0; i < telem.DefaultFlightRecords; i++ {
		s.recordRequest(rec)
	}
	if n := testing.AllocsPerRun(200, func() {
		s.recordRequest(rec)
	}); n != 0 {
		t.Fatalf("recording into the full ring allocated %.1f per run, want 0", n)
	}
	if got := s.recorder.Len(); got != telem.DefaultFlightRecords {
		t.Fatalf("recorder holds %d records, want %d", got, telem.DefaultFlightRecords)
	}
}

// slowListEntries polls /v1/debug/state until want(entries) holds,
// returning the raw slow_requests entries.
func slowListEntries(t *testing.T, url string, want func([]map[string]any) bool) []map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, data := get(t, url+"/v1/debug/state")
		var st struct {
			SlowRequests []map[string]any `json:"slow_requests"`
		}
		decodeInto(t, data, &st)
		if want(st.SlowRequests) {
			return st.SlowRequests
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow_requests never matched: %s", data)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSlowRequestsList: the debug state's and dashboard's slow list is
// a filter over the flight recorder — present with every request slow,
// empty with slow tracking off.
func TestSlowRequestsList(t *testing.T) {
	s, ts := newTestServer(t, Options{SampleEvery: -1, SlowThreshold: time.Nanosecond})
	if resp, data := postWithID(t, ts.URL+"/v1/compile", "slow-list-1", compileBody(tinySource, "lpfs", 2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, data)
	}
	var entry map[string]any
	slowListEntries(t, ts.URL, func(es []map[string]any) bool {
		for _, e := range es {
			if e["id"] == "slow-list-1" {
				entry = e
				return true
			}
		}
		return false
	})
	if entry["endpoint"] != "compile" || entry["status"] != float64(200) {
		t.Errorf("slow entry = %v", entry)
	}
	if dur, _ := entry["dur_ms"].(float64); dur <= 0 {
		t.Errorf("slow entry dur_ms = %v", entry["dur_ms"])
	}
	if stamp, _ := entry["ts"].(string); stamp == "" {
		t.Errorf("slow entry ts missing: %v", entry)
	} else if _, err := time.Parse(accessTimeFormat, stamp); err != nil {
		t.Errorf("slow entry ts %q: %v", stamp, err)
	}
	_, data := get(t, ts.URL+"/v1/dashboard")
	html := string(data)
	i := strings.Index(html, "recent slow requests")
	if i < 0 || !strings.Contains(html[i:], "<td>slow-list-1</td>") {
		t.Errorf("dashboard slow table misses slow-list-1:\n%s", html[max(i, 0):])
	}
	if s.recorder.Len() == 0 {
		t.Error("flight recorder empty without telemetry")
	}

	s, ts = newTestServer(t, Options{SampleEvery: -1, SlowThreshold: -1})
	if resp, data := postWithID(t, ts.URL+"/v1/compile", "fast-1", compileBody(tinySource, "lpfs", 2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, data)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.recorder.Total() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compile never reached the flight recorder")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if es := slowListEntries(t, ts.URL, func([]map[string]any) bool { return true }); len(es) != 0 {
		t.Fatalf("slow_requests with slow tracking off = %v", es)
	}
	_, data = get(t, ts.URL+"/v1/dashboard")
	html = string(data)
	if i := strings.Index(html, "recent slow requests"); i < 0 || !strings.Contains(html[i:], "none") {
		t.Errorf("dashboard slow table not empty with slow tracking off")
	}
}

// TestDashboardTrendWithoutTelemetry: without a persistent store the
// sampler appends to the in-memory one, and the dashboard trends from
// it like from a persistent store.
func TestDashboardTrendWithoutTelemetry(t *testing.T) {
	_, ts := newTestServer(t, Options{SampleEvery: 10 * time.Millisecond})
	if resp, data := post(t, ts.URL+"/v1/compile", compileBody(tinySource, "lpfs", 2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, data)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, data := get(t, ts.URL+"/v1/dashboard")
		html := string(data)
		if strings.Contains(html, "<polyline") && strings.Contains(html, "requests/s (last") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("dashboard never rendered an in-memory trend:\n%.600s", html)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecordedDecisionsCarryRequestID: with telemetry on, a request's
// record keeps the first recorderDecisions decisions of its evaluation,
// in task order and each stamped with the request's id: the head of
// the log a serial evaluation of the same request records.
func TestRecordedDecisionsCarryRequestID(t *testing.T) {
	var buf syncBuffer
	s, ts := newTestServer(t, Options{AccessLog: obs.NewAccessLog(&buf), Telemetry: openTelem(t, t.TempDir())})
	if resp, data := postWithID(t, ts.URL+"/v1/compile", "decided", `{"bench":"Grovers","scheduler":"rcp","k":4}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, data)
	}
	waitForEntry(t, &buf, "decided")
	var got []obs.Decision
	for _, r := range s.recorder.Recent() {
		if r.ID == "decided" {
			got = r.Decisions
		}
	}

	req := request.Config{Bench: "Grovers", Scheduler: "rcp", K: 4}.WithDefaults()
	p, err := req.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	eopts, err := req.EvalOptions()
	if err != nil {
		t.Fatal(err)
	}
	eopts.Workers = 1
	eopts.Obs = &obs.Observer{Decisions: obs.NewDecisionLogLimit(obs.LevelStep, 0)}
	if _, err := core.Evaluate(p, eopts); err != nil {
		t.Fatal(err)
	}
	want := eopts.Obs.Decisions.Entries()
	if len(want) <= recorderDecisions {
		t.Fatalf("Grovers logs %d decisions, too few to tell the head from the tail", len(want))
	}
	want = want[:recorderDecisions]
	for i := range want {
		want[i].Request = "decided"
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recorded decisions are not the first %d, stamped with the request id:\ngot  %+v\nwant %+v",
			recorderDecisions, got, want)
	}
}
