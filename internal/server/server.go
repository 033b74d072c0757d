package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/obs/telem"
)

// Options configures a Server. The zero value is usable: every field
// has a sensible default.
type Options struct {
	// MaxInflight bounds concurrent evaluations (not HTTP connections:
	// deduplicated followers and the cheap read-only endpoints are
	// free). Default: GOMAXPROCS.
	MaxInflight int
	// MaxQueue bounds evaluations waiting for an inflight slot before
	// the server answers 429. Default: 4 * MaxInflight. Set negative
	// for no queue at all.
	MaxQueue int
	// Timeout is the per-evaluation deadline. Default: 2 minutes.
	Timeout time.Duration
	// Workers is the engine worker-pool size per evaluation (0 = the
	// engine's own default).
	Workers int
	// Registry receives the per-endpoint request counters and latency
	// histograms, and is served at /metrics. Default: a fresh registry.
	Registry *obs.Registry
	// Cache is the shared evaluation cache. Default: a fresh cache.
	Cache *core.EvalCache

	// AccessLog receives one structured JSON line per request (nil =
	// access logging off). Build with obs.NewAccessLog.
	AccessLog *obs.AccessLog
	// SlowThreshold marks requests whose wall time meets or exceeds it
	// as slow: their access-log entries carry the per-phase span
	// breakdown and they show in the debug state's and dashboard's slow
	// list. Default: 1 second. Set negative to disable slow tracking.
	SlowThreshold time.Duration
	// SampleEvery is the period of the runtime sampler and of the
	// registry snapshots appended to the history store the dashboard
	// trends. Default: 2 seconds. Set negative to disable sampling (no
	// runtime gauges, empty dashboard sparklines).
	SampleEvery time.Duration

	// Telemetry is the persistent telemetry store (nil = history lives
	// in an in-memory store, the flight recorder captures no spans or
	// decisions, no postmortem bundles are written, and the
	// telemetry endpoints answer telemetry_disabled). The caller opens
	// and closes it; the server only appends.
	Telemetry *telem.Store
	// NoAutoSnapshot disables the automatic postmortem bundles written
	// when a request ends slow, overloaded (429) or errored (5xx);
	// POST /v1/debug/snapshot keeps working. The zero value — automatic
	// bundles on — is the useful default.
	NoAutoSnapshot bool
}

// bundleMinGap rate-limits automatic postmortem bundles to one per gap:
// an overload storm must not turn into a disk-write storm.
const bundleMinGap = 10 * time.Second

// errBusy marks an admission rejection (queue full).
var errBusy = errors.New("server: admission queue full")

// Server is the compile service: one shared cache and flight group,
// admission control, and the /v1 handler surface. Create with New,
// mount Handler, and Close when done.
type Server struct {
	opts    Options
	cache   *core.EvalCache
	memo    *buildMemo
	flights *flightGroup
	sem     chan struct{}
	queued  atomic.Int64
	reg     *obs.Registry
	mux     *http.ServeMux
	started time.Time

	// base is the parent of every evaluation context; Close cancels it
	// so draining work stops even if clients hang around.
	base     context.Context
	stop     context.CancelFunc
	wg       sync.WaitGroup // in-flight evaluation leaders
	draining atomic.Bool

	accessLog   *obs.AccessLog
	stopSampler func()
	drains      drainTracker

	// telem is the persistent store (nil without one); series is the
	// store the sampler appends to and the dashboard trends from: telem
	// when set, otherwise an in-memory store.
	telem      *telem.Store
	series     *telem.Store
	recorder   *telem.FlightRecorder
	lastBundle atomic.Int64 // unix nanos of the last automatic bundle

	inflightGauge *obs.Gauge
	queuedGauge   *obs.Gauge
	dedupCounter  *obs.Counter
	rejectCounter *obs.Counter
	reqsAll       *obs.Counter
	errsAll       *obs.Counter
	latAll        *obs.Histogram
}

// New builds a Server from opts, applying defaults for zero fields.
func New(opts Options) *Server {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if opts.MaxQueue == 0 {
		opts.MaxQueue = 4 * opts.MaxInflight
	}
	if opts.MaxQueue < 0 {
		opts.MaxQueue = 0
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Minute
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.Cache == nil {
		opts.Cache = core.NewEvalCache()
	}
	if opts.SlowThreshold == 0 {
		opts.SlowThreshold = time.Second
	}
	if opts.SampleEvery == 0 {
		opts.SampleEvery = 2 * time.Second
	}
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		cache:   opts.Cache,
		memo:    newBuildMemo(opts.Registry),
		flights: newFlightGroup(),
		sem:     make(chan struct{}, opts.MaxInflight),
		reg:     opts.Registry,
		mux:     nil,
		started: time.Now(),
		base:    base,
		stop:    stop,

		accessLog: opts.AccessLog,
		telem:     opts.Telemetry,
		series:    opts.Telemetry,
		recorder:  telem.NewFlightRecorder(telem.DefaultFlightRecords),

		inflightGauge: opts.Registry.Gauge("server.inflight"),
		queuedGauge:   opts.Registry.Gauge("server.queued"),
		dedupCounter:  opts.Registry.Counter("server.deduped"),
		rejectCounter: opts.Registry.Counter("server.rejected"),
		reqsAll:       opts.Registry.Counter("server.requests"),
		errsAll:       opts.Registry.Counter("server.errors"),
		latAll:        opts.Registry.Histogram("server.latency_ms"),
	}
	if s.series == nil {
		s.series = telem.NewMemory(memHistorySamples)
	}
	s.routes()
	if opts.SampleEvery > 0 {
		s.stopSampler = s.startSampler(opts.SampleEvery)
	}
	return s
}

// routes wires the /v1 surface plus the shared-mux observability
// endpoints (metrics, pprof) — one port, no conflicts.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/compile", s.instrument("compile", s.handleCompile))
	s.mux.HandleFunc("POST /v1/schedule", s.instrument("schedule", s.handleSchedule))
	s.mux.HandleFunc("POST /v1/report", s.instrument("report", s.handleReport))
	s.mux.HandleFunc("POST /v1/verify", s.instrument("verify", s.handleVerify))
	s.mux.HandleFunc("GET /v1/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /v1/version", s.instrument("version", s.handleVersion))
	s.mux.HandleFunc("GET /v1/debug/state", s.instrument("debug_state", s.handleDebugState))
	s.mux.HandleFunc("POST /v1/debug/snapshot", s.instrument("debug_snapshot", s.handleDebugSnapshot))
	s.mux.HandleFunc("GET /v1/metrics/range", s.instrument("metrics_range", s.handleMetricsRange))
	s.mux.HandleFunc("GET /v1/dashboard", s.instrument("dashboard", s.handleDashboard))
	obs.RegisterMetrics(s.mux, s.reg)
	obs.RegisterPprof(s.mux)
}

// Handler returns the server's full HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the instrument registry (the same one /metrics
// serves).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Cache exposes the shared evaluation cache, e.g. for tests asserting
// hit/miss traffic.
func (s *Server) Cache() *core.EvalCache { return s.cache }

// SetDraining flips the health status reported by /v1/healthz; the
// daemon sets it when shutdown begins so load balancers stop routing
// here while in-flight work drains.
func (s *Server) SetDraining() { s.draining.Store(true) }

// Drain blocks until every in-flight evaluation has finished or ctx
// expires. Call after http.Server.Shutdown has stopped new arrivals.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels the context under every evaluation, aborting whatever
// Drain did not see finish, and stops the runtime sampler.
func (s *Server) Close() {
	s.stop()
	if s.stopSampler != nil {
		s.stopSampler()
	}
}

// admit claims an evaluation slot, waiting in the bounded queue when
// all slots are busy. It returns errBusy when the queue is full and the
// caller's context error if the client leaves while queued.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	claim := func() func() {
		s.inflightGauge.Add(1)
		return func() {
			s.inflightGauge.Add(-1)
			// A released slot is one queue position drained; the tracker's
			// observed rate prices the Retry-After of 429 responses.
			s.drains.note(time.Now())
			<-s.sem
		}
	}
	select {
	case s.sem <- struct{}{}:
		return claim(), nil
	default:
	}
	if n := s.queued.Add(1); n > int64(s.opts.MaxQueue) {
		s.queued.Add(-1)
		s.rejectCounter.Inc()
		return nil, errBusy
	}
	s.queuedGauge.Add(1)
	defer func() {
		s.queued.Add(-1)
		s.queuedGauge.Add(-1)
	}()
	select {
	case s.sem <- struct{}{}:
		return claim(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// drainTracker remembers recent evaluation-completion times so 429
// responses can price their Retry-After from the observed drain rate
// instead of a hardcoded constant: a queue of 20 draining at 2/s tells
// the client to come back in 10s, not hammer every second.
type drainTracker struct {
	mu   sync.Mutex
	ring [drainSamples]time.Time
	n    int64
}

const (
	drainSamples = 32
	// drainWindow bounds how far back the rate estimate looks: a burst
	// an hour ago says nothing about the current queue.
	drainWindow   = 2 * time.Minute
	retryAfterMin = 1
	retryAfterMax = 30
)

func (d *drainTracker) note(t time.Time) {
	d.mu.Lock()
	d.ring[d.n%drainSamples] = t
	d.n++
	d.mu.Unlock()
}

// rate returns completions per second observed across the retained
// samples inside the window, or 0 when there is not enough signal.
func (d *drainTracker) rate(now time.Time) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	cutoff := now.Add(-drainWindow)
	var oldest time.Time
	count := 0
	kept := d.n
	if kept > drainSamples {
		kept = drainSamples
	}
	for i := int64(0); i < kept; i++ {
		t := d.ring[i]
		if t.Before(cutoff) {
			continue
		}
		if count == 0 || t.Before(oldest) {
			oldest = t
		}
		count++
	}
	if count < 2 {
		return 0
	}
	span := now.Sub(oldest).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(count) / span
}

// retryAfterSecs converts queue depth over drain rate into the
// Retry-After seconds of a 429, clamped to [1, 30]. With no observed
// drains (a cold or wedged server) it stays at the floor — the old
// constant behavior.
func (s *Server) retryAfterSecs() int64 {
	rate := s.drains.rate(time.Now())
	if rate <= 0 {
		return retryAfterMin
	}
	eta := int64(math.Ceil(float64(s.queued.Load()+1) / rate))
	if eta < retryAfterMin {
		return retryAfterMin
	}
	if eta > retryAfterMax {
		return retryAfterMax
	}
	return eta
}

// statusWriter remembers the response code and counts body bytes for
// the latency/error instruments and the access log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// instrument wraps a handler with the request-observability middleware:
// request-id accept/generate, per-endpoint and aggregate instruments,
// and the request record the handlers fill, written once at the end to
// the access log and the flight recorder.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.reg.Counter("server." + name + ".requests")
	errs := s.reg.Counter("server." + name + ".errors")
	lat := s.reg.Histogram("server." + name + ".latency_ms")
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		s.reqsAll.Inc()

		id := obs.SanitizeRequestID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		rec := &obs.RequestRecord{ID: id, Endpoint: name, Method: r.Method, Path: r.URL.Path}
		ctx := obs.WithRequestID(r.Context(), id)
		r = r.WithContext(withRecord(ctx, rec))

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)

		dur := time.Since(start)
		if sw.code >= 400 {
			errs.Inc()
			s.errsAll.Inc()
		}
		lat.Observe(dur.Milliseconds())
		s.latAll.Observe(dur.Milliseconds())

		rec.Time = start.UTC().Format(accessTimeFormat)
		rec.Status, rec.Bytes = sw.code, sw.bytes
		rec.DurMS = float64(dur.Microseconds()) / 1000
		rec.Slow = s.opts.SlowThreshold > 0 && dur >= s.opts.SlowThreshold
		s.accessLog.Log(rec)
		s.recordRequest(rec)
	}
}

// recordRequest copies the finished record into the flight recorder
// and, with a telemetry store, freezes the ring into an automatic
// postmortem bundle when the request ended badly. Runs after the
// response is written, so bundle I/O never delays a client.
func (s *Server) recordRequest(rec *obs.RequestRecord) {
	s.recorder.Record(rec)
	if s.telem == nil || s.opts.NoAutoSnapshot {
		return
	}
	var trigger string
	switch {
	case rec.Status == http.StatusTooManyRequests:
		trigger = "overloaded"
	case rec.Status >= 500:
		trigger = "error"
	case rec.Slow:
		trigger = "slow"
	default:
		return
	}
	if s.bundleGapElapsed(time.Now()) {
		_, _ = s.writeBundle(trigger, rec.ID, rec)
	}
}

// bundleGapElapsed claims the automatic-bundle rate-limit slot: true
// means the caller may write (and the timestamp has been advanced).
func (s *Server) bundleGapElapsed(now time.Time) bool {
	last := s.lastBundle.Load()
	return now.UnixNano()-last >= bundleMinGap.Nanoseconds() &&
		s.lastBundle.CompareAndSwap(last, now.UnixNano())
}

// writeBundle freezes the flight recorder, metrics and debug state into
// one postmortem bundle under <telemetry-dir>/postmortem.
func (s *Server) writeBundle(trigger, requestID string, req *obs.RequestRecord) (string, error) {
	now := time.Now()
	state, _ := json.Marshal(s.debugState())
	b := telem.BuildBundle("qschedd", trigger, now.UTC().Format(accessTimeFormat),
		requestID, req, s.recorder.Recent(), s.reg.Snapshot(), state)
	return telem.WriteBundle(filepath.Join(s.telem.Dir(), "postmortem"), b, now)
}

// accessTimeFormat is RFC 3339 with millisecond precision, the access
// log's and dashboard's timestamp format.
const accessTimeFormat = "2006-01-02T15:04:05.000Z07:00"

// recordKey is the context key for the per-request record.
type recordKey struct{}

// withRecord stores the request's record in its context. All writes to
// the record happen on the request's handler goroutine (flight results
// are copied in after the flight completes), so it needs no lock.
func withRecord(ctx context.Context, rec *obs.RequestRecord) context.Context {
	return context.WithValue(ctx, recordKey{}, rec)
}

// recordFrom returns the request's record, or nil outside the
// instrumented handler chain (direct handler tests). Callers must
// nil-check.
func recordFrom(ctx context.Context) *obs.RequestRecord {
	rec, _ := ctx.Value(recordKey{}).(*obs.RequestRecord)
	return rec
}

// requestID is a convenience for handlers stamping response envelopes.
func requestID(r *http.Request) string {
	return obs.RequestID(r.Context())
}
