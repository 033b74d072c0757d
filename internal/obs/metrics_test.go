package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cache.hits")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	if r.Counter("cache.hits") != c {
		t.Error("second lookup returned a different counter")
	}

	g := r.Gauge("workers.peak")
	g.Set(2)
	g.Max(7)
	g.Max(3) // lower, ignored
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge after Add = %d, want 5", got)
	}

	h := r.Histogram("ops.per_step")
	for _, v := range []int64{0, 1, 2, 3, 5, 100, -4} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Errorf("hist count = %d, want 7", got)
	}
	if got := h.Sum(); got != 111 { // -4 clamps to 0
		t.Errorf("hist sum = %d, want 111", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(10)
	r.Gauge("b").Set(-3)
	r.Histogram("h").Observe(6)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if s.Counters["a"] != 10 || s.Gauges["b"] != -3 {
		t.Errorf("round trip lost values: %+v", s)
	}
	h := s.Histograms["h"]
	if h.Count != 1 || h.Sum != 6 {
		t.Errorf("hist snapshot = %+v", h)
	}
	// 6 has bit length 3, so its bucket's upper bound is 2^3-1 = 7.
	if len(h.Buckets) != 1 || h.Buckets[0].LE != 7 || h.Buckets[0].Count != 1 {
		t.Errorf("hist buckets = %+v", h.Buckets)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("eval_cache.comm.hits").Add(12)
	r.Gauge("engine.workers.peak").Set(8)
	r.Histogram("sched.ops_per_step").Observe(3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE eval_cache_comm_hits counter",
		"eval_cache_comm_hits 12",
		"# TYPE engine_workers_peak gauge",
		"engine_workers_peak 8",
		"# TYPE sched_ops_per_step histogram",
		`sched_ops_per_step_bucket{le="3"} 1`,
		`sched_ops_per_step_bucket{le="+Inf"} 1`,
		"sched_ops_per_step_sum 3",
		"sched_ops_per_step_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// metricsMux serves r's endpoints on a mux of their own.
func metricsMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	RegisterMetrics(mux, r)
	return mux
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(5)
	srv := httptest.NewServer(metricsMux(r))
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "hits 5") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &s); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}
	if s.Counters["hits"] != 5 {
		t.Errorf("/metrics.json counters = %v", s.Counters)
	}
}

func TestServeMetricsBinds(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	ln, err := Serve("127.0.0.1:0", metricsMux(r))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "x 1") {
		t.Errorf("served metrics missing counter:\n%s", body)
	}
}

func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Max(int64(i))
				r.Histogram("h").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Errorf("hist count = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 999 {
		t.Errorf("gauge max = %d, want 999", got)
	}
}

// TestDisabledMetricsAllocateNothing guards the nil-registry fast path.
func TestDisabledMetricsAllocateNothing(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		r.Counter("c").Add(1)
		r.Gauge("g").Max(9)
		r.Gauge("g").Set(3)
		r.Histogram("h").Observe(100)
	})
	if allocs != 0 {
		t.Fatalf("disabled metrics allocate %v times per op, want 0", allocs)
	}
}

func TestNilRegistrySnapshots(t *testing.T) {
	var r *Registry
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot non-empty: %+v", s)
	}
	if err := r.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"eval_cache.comm.hits": "eval_cache_comm_hits",
		"sched-ops/step":       "sched_ops_step",
		"9lives":               "_9lives",
		"ok_name:sub":          "ok_name:sub",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
