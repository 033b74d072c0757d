package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/report"
	"github.com/scaffold-go/multisimd/internal/request"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

const tinySource = `
module kernel(qbit x[2]) {
  H(x[0]);
  CNOT(x[0], x[1]);
}
module main() {
  qbit q[4];
  kernel(q[0:2]);
  kernel(q[2:4]);
}
`

// manyLeafSource builds a program with n structurally distinct leaf
// modules, giving an evaluation plenty of independent pool tasks.
func manyLeafSource(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "module leaf%d() {\n  qbit q[2];\n", i)
		for j := 0; j <= i; j++ {
			sb.WriteString("  H(q[0]);\n  CNOT(q[0], q[1]);\n")
		}
		sb.WriteString("}\n")
	}
	sb.WriteString("module main() {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  leaf%d();\n", i)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// gatedScheduler counts Schedule calls and blocks each one until the
// test closes release, then delegates to LPFS. Registered under a
// unique name per test, it freezes server-side evaluations so tests
// can observe in-flight state deterministically.
type gatedScheduler struct {
	name    string
	calls   *atomic.Int64
	started chan struct{} // one token per Schedule call start
	release chan struct{} // closed to let calls proceed
}

func newGated(name string) gatedScheduler {
	g := gatedScheduler{
		name:    name,
		calls:   &atomic.Int64{},
		started: make(chan struct{}, 256),
		release: make(chan struct{}),
	}
	schedule.Register(g)
	return g
}

func (g gatedScheduler) Name() string { return g.name }

func (g gatedScheduler) Schedule(m *ir.Module, gr *dag.Graph, k, d int) (*schedule.Schedule, error) {
	g.calls.Add(1)
	select {
	case g.started <- struct{}{}:
	default:
	}
	<-g.release
	return core.LPFS.Schedule(m, gr, k, d)
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func decodeInto(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
}

func compileBody(source, sched string, k int) string {
	b, _ := json.Marshal(map[string]any{"source": source, "scheduler": sched, "k": k})
	return string(b)
}

// rawBody is compileBody with the flattening threshold pinned low so
// multi-leaf test programs keep their leaves (the default FTh inlines
// small modules into main).
func rawBody(source, sched string, k int) string {
	b, _ := json.Marshal(map[string]any{"source": source, "scheduler": sched, "k": k, "fth": 1})
	return string(b)
}

// TestMalformedJSON pins the structured-error contract: undecodable
// bodies, unknown fields and validation failures all come back as 400
// with a schema-stamped error envelope, never bare text.
func TestMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name, body, code string
	}{
		{"not json", "{this is not json", CodeBadRequest},
		{"unknown field", `{"sorce": "module main() {}"}`, CodeBadRequest},
		{"trailing garbage", `{"source": "x"} extra`, CodeBadRequest},
		{"fails validation", `{}`, CodeInvalid},
		{"both source and bench", `{"source": "x", "bench": "Grovers"}`, CodeInvalid},
	}
	for _, tc := range cases {
		resp, data := post(t, ts.URL+"/v1/compile", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", tc.name, ct)
		}
		var e ErrorResponse
		decodeInto(t, data, &e)
		if e.Schema != SchemaVersion || e.Error.Code != tc.code || e.Error.Message == "" {
			t.Errorf("%s: error envelope %+v, want schema %d code %s", tc.name, e, SchemaVersion, tc.code)
		}
	}
}

// TestKAboveMaxRejected pins the request-size bound on k: a tiny body
// asking for request.MaxK+1 regions is a 400 invalid on every
// evaluating endpoint, and nothing is evaluated (the engine's task
// counter stays 0 until a valid request runs).
func TestKAboveMaxRejected(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	tasks := s.Registry().Counter("engine.tasks")
	for _, path := range []string{"/v1/compile", "/v1/report", "/v1/verify", "/v1/schedule"} {
		resp, data := post(t, ts.URL+path, compileBody(tinySource, "lpfs", request.MaxK+1))
		var e ErrorResponse
		decodeInto(t, data, &e)
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeInvalid ||
			!strings.Contains(e.Error.Message, "k must be") {
			t.Errorf("%s k=%d: status %d, error %+v", path, request.MaxK+1, resp.StatusCode, e.Error)
		}
	}
	if n := tasks.Value(); n != 0 {
		t.Errorf("rejected requests ran %d engine tasks", n)
	}
	if resp, data := post(t, ts.URL+"/v1/compile", compileBody(tinySource, "lpfs", 2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid request: status %d: %s", resp.StatusCode, data)
	}
	if tasks.Value() == 0 {
		t.Error("engine.tasks did not count a valid evaluation")
	}
}

func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, data := post(t, ts.URL+"/v1/compile", compileBody(tinySource, "lpfs", 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var cr CompileResponse
	decodeInto(t, data, &cr)
	if cr.Schema != SchemaVersion || cr.Deduped {
		t.Errorf("envelope %+v", cr)
	}
	if cr.Request.Scheduler != "lpfs" || cr.Request.K != 2 || cr.Request.Entry != "main" {
		t.Errorf("normalized request not echoed: %+v", cr.Request)
	}
	if cr.Metrics.TotalGates == 0 || cr.Metrics.CommCycles == 0 || cr.Metrics.SpeedupVsSeq <= 0 {
		t.Errorf("degenerate metrics: %+v", cr.Metrics)
	}
	// A syntactically broken program is compile_failed, still structured.
	resp, data = post(t, ts.URL+"/v1/compile", compileBody("module main( {", "lpfs", 2))
	var e ErrorResponse
	decodeInto(t, data, &e)
	if resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeCompileFailed {
		t.Errorf("broken program: status %d body %+v", resp.StatusCode, e)
	}
}

// wrapSource nests three 3·10^9-trip loops of calls over a two-gate
// leaf: every count of the program past the leaf saturates int64.
const wrapSource = `
module leaf(qbit x[2]) {
  H(x[0]);
  CNOT(x[0], x[1]);
}
module mid(qbit x[2]) {
  for (i = 0; i < 3000000000; i++) { leaf(x[0:2]); }
}
module top(qbit x[2]) {
  for (i = 0; i < 3000000000; i++) { mid(x[0:2]); }
}
module main() {
  qbit q[2];
  for (i = 0; i < 3000000000; i++) { top(q[0:2]); }
}
`

// TestSaturatedCountsRejected: a program whose counts saturate is an
// evaluation_failed 422, never a 200 carrying wrapped metrics, also
// once the build memo holds the program.
func TestSaturatedCountsRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for i := 0; i < 3; i++ {
		resp, data := post(t, ts.URL+"/v1/compile", compileBody(wrapSource, "lpfs", 4))
		var e ErrorResponse
		decodeInto(t, data, &e)
		if resp.StatusCode != http.StatusUnprocessableEntity || e.Error.Code != CodeEvalFailed {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
}

// TestCompileDedup is the acceptance gate: 50 concurrent identical
// compile requests produce exactly one cold evaluation. The gated
// scheduler freezes the leader mid-run until all 50 requests have
// joined the flight, so the coalescing is asserted, not raced.
func TestCompileDedup(t *testing.T) {
	g := newGated("gated-dedup")
	s, ts := newTestServer(t, Options{})
	const clients = 50
	body := rawBody(manyLeafSource(6), g.name, 2)

	type outcome struct {
		status  int
		deduped bool
	}
	results := make(chan outcome, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, data := post(t, ts.URL+"/v1/compile", body)
			var cr CompileResponse
			_ = json.Unmarshal(data, &cr)
			results <- outcome{resp.StatusCode, cr.Deduped}
		}()
	}

	select {
	case <-g.started:
	case <-time.After(15 * time.Second):
		t.Fatal("leader evaluation never started")
	}
	// Wait until every request has joined the single flight.
	deadline := time.Now().Add(15 * time.Second)
	for {
		s.flights.mu.Lock()
		var waiters, flights int
		for _, f := range s.flights.flights {
			flights++
			waiters = f.waiters
		}
		s.flights.mu.Unlock()
		if flights == 1 && waiters == clients {
			break
		}
		if flights > 1 {
			t.Fatalf("identical requests split into %d flights", flights)
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests joined the flight", waiters, clients)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// While the flight is frozen, /v1/debug/state must show it live:
	// one flight, every client attached, the leader identified.
	resp, data := get(t, ts.URL+"/v1/debug/state")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/state status %d", resp.StatusCode)
	}
	var st DebugStateResponse
	decodeInto(t, data, &st)
	if len(st.Flights) != 1 {
		t.Fatalf("debug state shows %d flights, want 1: %+v", len(st.Flights), st.Flights)
	}
	if f := st.Flights[0]; f.Waiters < 2 || f.Waiters != clients || f.Key == "" || f.LeaderID == "" || f.AgeMS <= 0 {
		t.Errorf("live flight state %+v, want %d waiters with key, leader id and age", f, clients)
	}
	close(g.release)

	var leaders, followers int
	for i := 0; i < clients; i++ {
		o := <-results
		if o.status != http.StatusOK {
			t.Fatalf("request returned status %d", o.status)
		}
		if o.deduped {
			followers++
		} else {
			leaders++
		}
	}
	if leaders != 1 || followers != clients-1 {
		t.Errorf("%d leaders / %d followers, want 1 / %d", leaders, followers, clients-1)
	}
	// One cold evaluation: 6 leaves x widths {1,2} = 12 scheduled tasks,
	// each a cache miss, and nothing ever hit a warm entry.
	if n := g.calls.Load(); n != 12 {
		t.Errorf("scheduler ran %d times across %d requests, want 12 (one evaluation)", n, clients)
	}
	cst := s.Cache().Stats()
	if cst.CommMisses != 12 || cst.SchedMisses != 12 || cst.CommHits != 0 {
		t.Errorf("cache traffic shows more than one cold evaluation: %+v", cst)
	}
}

// TestCancellationStopsWork: when the only client of an evaluation
// disconnects mid-compile, the flight's work context is cancelled, the
// engine abandons its remaining tasks, and the server drains to idle.
func TestCancellationStopsWork(t *testing.T) {
	g := newGated("gated-cancel")
	s, ts := newTestServer(t, Options{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/compile", strings.NewReader(rawBody(manyLeafSource(6), g.name, 2)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errs := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errs <- err
	}()

	select {
	case <-g.started:
	case <-time.After(15 * time.Second):
		t.Fatal("evaluation never started")
	}
	cancel() // client walks away mid-compile
	if err := <-errs; err == nil {
		t.Fatal("cancelled request returned a response")
	}
	// The server notices the disconnect asynchronously; the flight is
	// retired (and its work context cancelled) the moment the last
	// waiter leaves. Only then open the gate: the one in-flight
	// scheduler call finishes, and the engine must not start the other
	// 11 tasks under a dead context.
	deadline := time.Now().Add(15 * time.Second)
	for {
		s.flights.mu.Lock()
		n := len(s.flights.flights)
		s.flights.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned flight never retired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(g.release)
	drainCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("server did not drain after cancellation: %v", err)
	}
	if n := g.calls.Load(); n != 1 {
		t.Errorf("scheduler ran %d tasks after the client left, want 1 (of 12)", n)
	}
}

// TestQueueFull429: with one evaluation slot busy and no queue, a
// non-identical request is rejected with 429, Retry-After, and the
// structured overloaded body.
func TestQueueFull429(t *testing.T) {
	g := newGated("gated-queue")
	_, ts := newTestServer(t, Options{MaxInflight: 1, MaxQueue: -1})

	done := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts.URL+"/v1/compile", compileBody(tinySource, g.name, 2))
		done <- resp.StatusCode
	}()
	select {
	case <-g.started:
	case <-time.After(15 * time.Second):
		t.Fatal("slot-holding evaluation never started")
	}

	resp, data := post(t, ts.URL+"/v1/compile", compileBody(manyLeafSource(3), "lpfs", 2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, data)
	}
	// Retry-After is derived from the observed drain rate, so only its
	// presence and bounds are contractual.
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 30 {
		t.Errorf("Retry-After %q, want an integer in [1, 30]", ra)
	}
	var e ErrorResponse
	decodeInto(t, data, &e)
	if e.Schema != SchemaVersion || e.Error.Code != CodeOverloaded {
		t.Errorf("error envelope %+v", e)
	}

	close(g.release)
	if status := <-done; status != http.StatusOK {
		t.Errorf("slot holder finished with %d", status)
	}
}

// TestGracefulDrain: draining flips healthz, Drain blocks while work
// is in flight, and the in-flight request still completes successfully.
func TestGracefulDrain(t *testing.T) {
	g := newGated("gated-drain")
	s, ts := newTestServer(t, Options{})

	done := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts.URL+"/v1/compile", compileBody(tinySource, g.name, 2))
		done <- resp.StatusCode
	}()
	select {
	case <-g.started:
	case <-time.After(15 * time.Second):
		t.Fatal("evaluation never started")
	}

	s.SetDraining()
	resp, data := get(t, ts.URL+"/v1/healthz")
	var h HealthResponse
	decodeInto(t, data, &h)
	if resp.StatusCode != http.StatusOK || h.Status != "draining" {
		t.Errorf("healthz while draining: status %d body %+v", resp.StatusCode, h)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, stop := context.WithTimeout(context.Background(), 15*time.Second)
		defer stop()
		drained <- s.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while an evaluation was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(g.release)
	if status := <-done; status != http.StatusOK {
		t.Errorf("in-flight request finished with %d during drain", status)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain did not complete after work finished: %v", err)
	}
}

func TestVerifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, data := post(t, ts.URL+"/v1/verify", compileBody(tinySource, "lpfs", 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var vr VerifyResponse
	decodeInto(t, data, &vr)
	if !vr.Verified || !vr.Request.Verify || vr.Metrics.TotalGates == 0 {
		t.Errorf("verify response %+v", vr)
	}
}

func TestReportEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, data := post(t, ts.URL+"/v1/report", compileBody(tinySource, "lpfs", 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var rep report.Report
	decodeInto(t, data, &rep)
	if rep.Schema != report.SchemaVersion {
		t.Errorf("report schema %d, want %d", rep.Schema, report.SchemaVersion)
	}
	if rep.Totals.TotalGates == 0 || len(rep.Modules) == 0 {
		t.Errorf("empty report: totals %+v, %d modules", rep.Totals, len(rep.Modules))
	}
}

func TestScheduleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"source": ` + string(mustJSON(tinySource)) + `, "k": 2, "module": "kernel"}`
	resp, data := post(t, ts.URL+"/v1/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr ScheduleResponse
	decodeInto(t, data, &sr)
	if sr.Module != "kernel" || sr.Ops == 0 || sr.Steps == 0 || sr.Text == "" {
		t.Errorf("schedule response %+v", sr)
	}
	if sr.EPR.Bandwidth != 2 {
		t.Errorf("default EPR bandwidth %d, want 2", sr.EPR.Bandwidth)
	}

	// Unknown module: 400 naming the available leaves.
	body = `{"source": ` + string(mustJSON(tinySource)) + `, "k": 2, "module": "nope"}`
	resp, data = post(t, ts.URL+"/v1/schedule", body)
	var e ErrorResponse
	decodeInto(t, data, &e)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error.Message, "kernel") {
		t.Errorf("unknown module: status %d body %+v", resp.StatusCode, e)
	}
}

func TestHealthzAndVersion(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, data := post(t, ts.URL+"/v1/compile", compileBody(tinySource, "lpfs", 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup compile: %d %s", resp.StatusCode, data)
	}

	resp, data = get(t, ts.URL+"/v1/healthz")
	var h HealthResponse
	decodeInto(t, data, &h)
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Schema != SchemaVersion {
		t.Errorf("healthz %d %+v", resp.StatusCode, h)
	}
	if h.Cache.CommEntries == 0 {
		t.Errorf("healthz cache stats empty after a compile: %+v", h.Cache)
	}

	resp, data = get(t, ts.URL+"/v1/version")
	var v VersionResponse
	decodeInto(t, data, &v)
	if resp.StatusCode != http.StatusOK || v.Service != "qschedd" || v.API != "v1" {
		t.Errorf("version %d %+v", resp.StatusCode, v)
	}
	has := func(xs []string, want string) bool {
		for _, x := range xs {
			if x == want {
				return true
			}
		}
		return false
	}
	if !has(v.Schedulers, "lpfs") || !has(v.Schedulers, "rcp") {
		t.Errorf("schedulers %v missing built-ins", v.Schedulers)
	}
	if len(v.Benchmarks) == 0 {
		t.Error("no benchmarks listed")
	}
}

// TestObservabilitySameMux: the API, Prometheus metrics and pprof all
// answer on the one listener, and the per-endpoint instruments show up
// in the scrape.
func TestObservabilitySameMux(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if resp, data := post(t, ts.URL+"/v1/compile", compileBody(tinySource, "lpfs", 2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, data)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{"server_compile_requests", "server_compile_latency_ms", "server_latency_ms_p95"} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("scrape missing %s:\n%s", want, prom)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}
}

// TestConcurrentMixedRequests hammers distinct configurations in
// parallel; under -race this exercises the shared cache, flight group
// and admission paths together.
func TestConcurrentMixedRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxInflight: 2, MaxQueue: 64})
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := 2 + i%3
			resp, data := post(t, ts.URL+"/v1/compile", compileBody(tinySource, "lpfs", k))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("k=%d: status %d %s", k, resp.StatusCode, data)
			}
		}(i)
	}
	wg.Wait()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
