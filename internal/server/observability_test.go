package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scaffold-go/multisimd/internal/obs"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the access log writes
// entries after the response has been flushed to the client, so tests
// must synchronize their reads against the middleware's writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) entries(t *testing.T) []obs.RequestRecord {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []obs.RequestRecord
	for _, line := range strings.Split(b.buf.String(), "\n") {
		if line == "" {
			continue
		}
		var e obs.RequestRecord
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("access log line not JSON: %v: %s", err, line)
		}
		out = append(out, e)
	}
	return out
}

// waitForEntry polls until the access log holds an entry with the given
// request id (the middleware logs after the client sees the response).
func waitForEntry(t *testing.T, b *syncBuffer, id string) obs.RequestRecord {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, e := range b.entries(t) {
			if e.ID == id {
				return e
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no access-log entry for id %q", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// postWithID posts body with an explicit X-Request-ID header.
func postWithID(t *testing.T, url, id, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestRequestIDEndToEnd is the acceptance path: one compile with
// X-Request-ID: demo produces the same id in the response header and
// envelope, one access-log line carrying it, and — with the slow
// threshold forced to zero distance — the per-phase span breakdown.
func TestRequestIDEndToEnd(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Options{
		AccessLog:     obs.NewAccessLog(&buf),
		SlowThreshold: time.Nanosecond, // every request is "slow"
	})

	resp, data := postWithID(t, ts.URL+"/v1/compile", "demo", compileBody(tinySource, "lpfs", 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "demo" {
		t.Errorf("response header id %q, want demo", got)
	}
	var cr CompileResponse
	decodeInto(t, data, &cr)
	if cr.RequestID != "demo" {
		t.Errorf("envelope request_id %q, want demo", cr.RequestID)
	}

	e := waitForEntry(t, &buf, "demo")
	if e.Endpoint != "compile" || e.Method != "POST" || e.Path != "/v1/compile" || e.Status != 200 {
		t.Errorf("entry basics wrong: %+v", e)
	}
	if e.Role != "solo" {
		t.Errorf("role %q, want solo", e.Role)
	}
	if e.Fingerprint == "" || e.Key == "" || !strings.Contains(e.Key, e.Fingerprint) {
		t.Errorf("fingerprint/key missing or inconsistent: fp=%q key=%q", e.Fingerprint, e.Key)
	}
	if e.Bytes == 0 || e.DurMS <= 0 || e.EvalMS <= 0 {
		t.Errorf("sizes/timings missing: bytes=%d dur=%v eval=%v", e.Bytes, e.DurMS, e.EvalMS)
	}
	if e.Cache == nil || e.Cache.SchedMisses == 0 {
		t.Errorf("cold compile's cache traffic missing: %+v", e.Cache)
	}
	if !e.Slow || len(e.Phases) == 0 {
		t.Fatalf("slow request lacks phase dump: slow=%v phases=%v", e.Slow, e.Phases)
	}
	hasEngine := false
	for _, p := range e.Phases {
		if p.Cat == "engine" && p.MS > 0 {
			hasEngine = true
		}
	}
	if !hasEngine {
		t.Errorf("phase dump has no engine span: %+v", e.Phases)
	}

	// A generated id: no header supplied, one is minted and echoed.
	resp, data = post(t, ts.URL+"/v1/compile", compileBody(tinySource, "lpfs", 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var cr2 CompileResponse
	decodeInto(t, data, &cr2)
	if cr2.RequestID == "" || cr2.RequestID == "demo" {
		t.Errorf("generated request_id %q", cr2.RequestID)
	}
	if got := resp.Header.Get("X-Request-ID"); got != cr2.RequestID {
		t.Errorf("header id %q != envelope id %q", got, cr2.RequestID)
	}
	// The warm repeat serves straight from the comm cache.
	e2 := waitForEntry(t, &buf, cr2.RequestID)
	if e2.Role != "solo" || e2.Cache == nil || e2.Cache.CommHits == 0 {
		t.Errorf("warm repeat entry: %+v cache=%+v", e2, e2.Cache)
	}
}

// TestFollowerInheritsLeaderEvaluation: a deduplicated request logs its
// own id, the follower role, and the leader's id — while inheriting the
// leader's evaluation stats.
func TestFollowerInheritsLeaderEvaluation(t *testing.T) {
	g := newGated("gated-follower")
	var buf syncBuffer
	s, ts := newTestServer(t, Options{AccessLog: obs.NewAccessLog(&buf)})
	body := rawBody(manyLeafSource(4), g.name, 2)

	type result struct {
		id      string
		deduped bool
		status  int
	}
	results := make(chan result, 2)
	launch := func(id string) {
		go func() {
			resp, data := postWithID(t, ts.URL+"/v1/compile", id, body)
			var cr CompileResponse
			_ = json.Unmarshal(data, &cr)
			results <- result{id, cr.Deduped, resp.StatusCode}
		}()
	}
	launch("req-a")
	select {
	case <-g.started:
	case <-time.After(15 * time.Second):
		t.Fatal("leader evaluation never started")
	}
	launch("req-b")
	// Wait for the second request to join the flight before releasing.
	deadline := time.Now().Add(15 * time.Second)
	for {
		s.flights.mu.Lock()
		waiters := 0
		for _, f := range s.flights.flights {
			waiters = f.waiters
		}
		s.flights.mu.Unlock()
		if waiters == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the flight")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(g.release)

	var leaderID, followerID string
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("request %s: status %d", r.id, r.status)
		}
		if r.deduped {
			followerID = r.id
		} else {
			leaderID = r.id
		}
	}
	if leaderID == "" || followerID == "" {
		t.Fatalf("no leader/follower split: leader=%q follower=%q", leaderID, followerID)
	}

	le := waitForEntry(t, &buf, leaderID)
	fe := waitForEntry(t, &buf, followerID)
	if le.Role != "leader" || le.LeaderID != "" {
		t.Errorf("leader entry role=%q leader_id=%q, want leader/\"\"", le.Role, le.LeaderID)
	}
	if fe.Role != "follower" || fe.LeaderID != leaderID {
		t.Errorf("follower entry role=%q leader_id=%q, want follower/%q", fe.Role, fe.LeaderID, leaderID)
	}
	if fe.ID == le.ID {
		t.Error("follower logged the leader's id as its own")
	}
	if fe.EvalMS != le.EvalMS || fe.EvalMS <= 0 {
		t.Errorf("follower did not inherit the leader's evaluation wall: leader=%v follower=%v", le.EvalMS, fe.EvalMS)
	}
	if fe.Key != le.Key {
		t.Errorf("keys differ: %q vs %q", le.Key, fe.Key)
	}
}

// TestOverloadCarriesIDAndQueueDepth: a 429 rejection echoes the
// request id and reports the admission queue depth it observed.
func TestOverloadCarriesIDAndQueueDepth(t *testing.T) {
	g := newGated("gated-overload")
	var buf syncBuffer
	_, ts := newTestServer(t, Options{
		MaxInflight: 1, MaxQueue: 1,
		AccessLog: obs.NewAccessLog(&buf),
	})

	// First request holds the only slot; second fills the queue; the
	// third is rejected with the queue's depth in the envelope.
	done := make(chan int, 2)
	hold := func(src string) {
		go func() {
			resp, _ := post(t, ts.URL+"/v1/compile", rawBody(src, g.name, 2))
			done <- resp.StatusCode
		}()
	}
	hold(manyLeafSource(3))
	select {
	case <-g.started:
	case <-time.After(15 * time.Second):
		t.Fatal("slot-holding evaluation never started")
	}
	hold(manyLeafSource(4))
	// Wait until the second request is actually queued.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, data := get(t, ts.URL+"/v1/healthz")
		var h HealthResponse
		decodeInto(t, data, &h)
		resp.Body.Close()
		if h.Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, data := postWithID(t, ts.URL+"/v1/compile", "reject-me", rawBody(manyLeafSource(5), "lpfs", 2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, data)
	}
	var e ErrorResponse
	decodeInto(t, data, &e)
	if e.RequestID != "reject-me" {
		t.Errorf("429 envelope request_id %q, want reject-me", e.RequestID)
	}
	if e.Error.Code != CodeOverloaded || e.Error.QueueDepth != 1 {
		t.Errorf("429 body %+v, want overloaded with queue_depth 1", e.Error)
	}
	le := waitForEntry(t, &buf, "reject-me")
	if le.Status != http.StatusTooManyRequests || le.QueueDepth != 1 || le.Err == "" {
		t.Errorf("429 access entry %+v", le)
	}

	close(g.release)
	for i := 0; i < 2; i++ {
		if status := <-done; status != http.StatusOK {
			t.Errorf("held request finished with %d", status)
		}
	}
}

// TestAccessLogSchema pins the access-log field set: required keys are
// always present, and nothing outside the documented schema appears.
// New fields must be added to the allowed set deliberately. It runs
// with and without a telemetry store: with one, the request's record
// carries spans and decisions, which must never reach the line.
func TestAccessLogSchema(t *testing.T) {
	for _, withTelemetry := range []bool{false, true} {
		t.Run(fmt.Sprintf("telemetry=%v", withTelemetry), func(t *testing.T) {
			testAccessLogSchema(t, withTelemetry)
		})
	}
}

func testAccessLogSchema(t *testing.T, withTelemetry bool) {
	var buf syncBuffer
	opts := Options{AccessLog: obs.NewAccessLog(&buf)}
	if withTelemetry {
		opts.Telemetry = openTelem(t, t.TempDir())
	}
	s, ts := newTestServer(t, opts)
	// RCP logs a decision per scheduled step, so decisions are recorded.
	if resp, data := postWithID(t, ts.URL+"/v1/compile", "schema-check", compileBody(tinySource, "rcp", 2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, data)
	}
	waitForEntry(t, &buf, "schema-check")
	if withTelemetry {
		var rec obs.RequestRecord
		for _, r := range s.recorder.Recent() {
			if r.ID == "schema-check" {
				rec = r
			}
		}
		if len(rec.Spans) == 0 || len(rec.Decisions) == 0 {
			t.Fatalf("recorded request lacks spans or decisions: %+v", rec)
		}
	}

	buf.mu.Lock()
	raw := buf.buf.String()
	buf.mu.Unlock()
	line := strings.Split(strings.TrimSpace(raw), "\n")[0]
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("entry not JSON: %v", err)
	}

	required := []string{"ts", "id", "endpoint", "method", "path", "status", "bytes", "dur_ms"}
	for _, k := range required {
		if _, ok := m[k]; !ok {
			t.Errorf("required key %q missing from %s", k, line)
		}
	}
	allowed := map[string]bool{
		"ts": true, "id": true, "endpoint": true, "method": true, "path": true,
		"status": true, "bytes": true, "dur_ms": true,
		"role": true, "leader_id": true, "fingerprint": true, "key": true,
		"queue_wait_ms": true, "eval_ms": true, "cache": true,
		"queue_depth": true, "slow": true, "phases": true, "error": true,
	}
	var keys []string
	for k := range m {
		keys = append(keys, k)
		if !allowed[k] {
			t.Errorf("undocumented access-log key %q (add it to the schema deliberately)", k)
		}
	}
	sort.Strings(keys)
	t.Logf("access-log keys: %v", keys)
}

// TestDebugStateAndDashboard exercises the two introspection endpoints
// after real traffic: schema-versioned JSON state and a self-contained
// HTML dashboard.
func TestDebugStateAndDashboard(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if resp, data := post(t, ts.URL+"/v1/compile", compileBody(tinySource, "lpfs", 2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, data)
	}

	resp, data := get(t, ts.URL+"/v1/debug/state")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/state status %d", resp.StatusCode)
	}
	var st DebugStateResponse
	decodeInto(t, data, &st)
	if st.Schema != DebugSchemaVersion || st.Status != "ok" {
		t.Errorf("state envelope %+v", st)
	}
	if st.RequestID == "" {
		t.Error("debug state missing its own request id")
	}
	if st.MaxInflight < 1 || st.UptimeMS <= 0 {
		t.Errorf("state basics: %+v", st)
	}
	if len(st.Flights) != 0 {
		t.Errorf("idle server shows flights: %+v", st.Flights)
	}
	if st.Cache.SchedMisses == 0 || st.Cache.CommMisses == 0 {
		t.Errorf("cache stats empty after compile: %+v", st.Cache)
	}
	var raw map[string]any
	decodeInto(t, data, &raw)
	for _, key := range []string{"status", "uptime_ms", "max_inflight", "inflight", "queue_depth", "cache", "runtime"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("debug state missing %q", key)
		}
	}
	if st.Runtime.Goroutines < 1 || st.Runtime.HeapAllocBytes <= 0 {
		t.Errorf("runtime sampler never ran: %+v", st.Runtime)
	}

	resp, data = get(t, ts.URL+"/v1/dashboard")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("dashboard content type %q", ct)
	}
	html := string(data)
	if !strings.Contains(html, "qschedd") || !strings.Contains(html, "requests/s") || !strings.Contains(html, "<svg") {
		t.Errorf("dashboard missing expected content")
	}
	// Self-contained: the same banned-token list CI enforces on report
	// HTML artifacts.
	for _, banned := range []string{"<script", "<link", "<img", "http://", "https://", "url(", "@import", "src="} {
		if strings.Contains(html, banned) {
			t.Errorf("dashboard contains banned token %q (must be self-contained)", banned)
		}
	}
}

// TestIntrospectionRaceClean hammers the debug endpoints while compiles
// run; under -race this is the data-race gate for the observability
// surface.
func TestIntrospectionRaceClean(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Options{
		MaxInflight: 2, MaxQueue: 64,
		AccessLog:     obs.NewAccessLog(&buf),
		SlowThreshold: time.Nanosecond,
		SampleEvery:   10 * time.Millisecond,
	})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := post(t, ts.URL+"/v1/compile", compileBody(tinySource, "lpfs", 2+i%3))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("compile status %d", resp.StatusCode)
			}
		}(i)
	}
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if resp, _ := get(t, ts.URL+"/v1/debug/state"); resp.StatusCode != http.StatusOK {
					t.Errorf("debug/state status %d", resp.StatusCode)
				}
				if resp, _ := get(t, ts.URL+"/v1/dashboard"); resp.StatusCode != http.StatusOK {
					t.Errorf("dashboard status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSanitizedHeaderID: hostile header ids are sanitized before they
// reach logs and envelopes.
func TestSanitizedHeaderID(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compile",
		strings.NewReader(compileBody(tinySource, "lpfs", 2)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "evil id\twith\tcontrol")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var cr CompileResponse
	decodeInto(t, data, &cr)
	if cr.RequestID != "evilidwithcontrol" {
		t.Errorf("sanitized id %q, want evilidwithcontrol", cr.RequestID)
	}
}
