// Package server is the compile service behind cmd/qschedd: a
// long-running daemon exposing the pipeline over a versioned HTTP/JSON
// API. Every response carries a schema number; every error is a
// structured body, never bare text. Concurrent requests share one
// core.EvalCache, identical in-flight requests are coalesced into a
// single evaluation, and admission control bounds the work the daemon
// accepts at once.
package server

import (
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/obs/telem"
	"github.com/scaffold-go/multisimd/internal/report"
	"github.com/scaffold-go/multisimd/internal/request"
)

// SchemaVersion is stamped on every response envelope (success and
// error alike) so clients can detect contract drift.
const SchemaVersion = 1

// Error codes returned in ErrorBody.Code.
const (
	CodeBadRequest    = "bad_request"     // undecodable or oversized body
	CodeInvalid       = "invalid_request" // body decoded but failed validation
	CodeCompileFailed = "compile_failed"  // program build (parse/lower) failed
	CodeEvalFailed    = "evaluation_failed"
	CodeOverloaded    = "overloaded" // admission queue full; retry later
	CodeTimeout       = "timeout"    // evaluation exceeded the request deadline
	CodeShuttingDown  = "shutting_down"
	// CodeTelemetryOff answers the telemetry endpoints when the server
	// runs without a telemetry store (-telemetry-dir unset).
	CodeTelemetryOff = "telemetry_disabled"
	// CodeSnapshotFailed marks a postmortem bundle that could not be
	// written (disk full, permissions).
	CodeSnapshotFailed = "snapshot_failed"
)

// ErrorBody is the structured error payload. QueueDepth is set on
// overloaded (429) responses only: the admission queue depth observed
// at rejection, so clients and operators see how far behind the server
// was.
type ErrorBody struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	QueueDepth int64  `json:"queue_depth,omitempty"`
}

// ErrorResponse is the envelope every non-2xx response carries.
// RequestID echoes the request's X-Request-ID (accepted or generated),
// matching the access-log line for the same request.
type ErrorResponse struct {
	Schema    int       `json:"schema"`
	RequestID string    `json:"request_id,omitempty"`
	Error     ErrorBody `json:"error"`
}

// MetricsBody is core.Metrics on the wire (see report.Metrics).
type MetricsBody = report.Metrics

// CompileResponse answers POST /v1/compile. Request carries the
// normalized configuration the evaluation actually ran under (defaults
// applied), and Deduped reports whether this request was served by
// joining an identical in-flight evaluation.
type CompileResponse struct {
	Schema    int            `json:"schema"`
	RequestID string         `json:"request_id,omitempty"`
	Label     string         `json:"label"`
	Request   request.Config `json:"request"`
	Deduped   bool           `json:"deduped"`
	Metrics   MetricsBody    `json:"metrics"`
}

// VerifyResponse answers POST /v1/verify: the same evaluation, audited
// (core.EvalOptions.Verify). Verified is always true on a 2xx — an
// illegal schedule, or a served characterization that differs from its
// re-derivation, is an evaluation_failed error.
type VerifyResponse struct {
	Schema    int            `json:"schema"`
	RequestID string         `json:"request_id,omitempty"`
	Label     string         `json:"label"`
	Request   request.Config `json:"request"`
	Deduped   bool           `json:"deduped"`
	Verified  bool           `json:"verified"`
	Metrics   MetricsBody    `json:"metrics"`
}

// ScheduleRequest asks for the fine-grained schedule of one leaf
// module (the qsched -dump surface, as JSON). The embedded Config
// supplies the program and machine the same way /v1/compile takes them.
type ScheduleRequest struct {
	request.Config
	Module string `json:"module"`
}

// EPRBody summarizes the EPR pre-distribution plan of a leaf schedule.
type EPRBody struct {
	Bandwidth   int  `json:"bandwidth"`
	Latency     int  `json:"latency"`
	Pairs       int  `json:"pairs"`
	PreIssued   int  `json:"pre_issued"`
	MaxBuffered int  `json:"max_buffered"`
	MakespanOK  bool `json:"makespan_ok"`
}

// ScheduleResponse answers POST /v1/schedule. Text is the paper's
// timestep/region/move-list rendering of the schedule.
type ScheduleResponse struct {
	Schema       int     `json:"schema"`
	RequestID    string  `json:"request_id,omitempty"`
	Module       string  `json:"module"`
	Ops          int     `json:"ops"`
	CriticalPath int     `json:"critical_path"`
	Steps        int     `json:"steps"`
	Cycles       int64   `json:"cycles"`
	GlobalMoves  int64   `json:"global_moves"`
	LocalMoves   int64   `json:"local_moves"`
	EPR          EPRBody `json:"epr"`
	Text         string  `json:"text"`
}

// HealthResponse answers GET /v1/healthz.
type HealthResponse struct {
	Schema   int             `json:"schema"`
	Status   string          `json:"status"` // "ok" or "draining"
	Inflight int             `json:"inflight"`
	Queued   int64           `json:"queued"`
	Cache    core.CacheStats `json:"cache"`
}

// VersionResponse answers GET /v1/version.
type VersionResponse struct {
	Schema     int      `json:"schema"`
	Service    string   `json:"service"`
	API        string   `json:"api"`
	GoVersion  string   `json:"go"`
	Schedulers []string `json:"schedulers"`
	Benchmarks []string `json:"benchmarks"`
}

// DebugSchemaVersion versions the /v1/debug/state contract
// independently of the request/response schema: the snapshot evolves
// with the server's internals, not with the compile API.
const DebugSchemaVersion = 1

// FlightState is one in-flight deduplicated evaluation.
type FlightState struct {
	// Key is the full dedup identity (program fingerprint + config).
	Key string `json:"key"`
	// AgeMS is how long the flight has been running.
	AgeMS float64 `json:"age_ms"`
	// Waiters counts requests currently attached (leader included).
	Waiters int `json:"waiters"`
	// LeaderID is the request id that started the flight.
	LeaderID string `json:"leader_id,omitempty"`
}

// RuntimeState is the latest runtime-sampler snapshot (zero when the
// sampler is disabled).
type RuntimeState struct {
	Goroutines     int64 `json:"goroutines"`
	HeapAllocBytes int64 `json:"heap_alloc_bytes"`
	HeapSysBytes   int64 `json:"heap_sys_bytes"`
	GCCount        int64 `json:"gc_count"`
	GCPauseTotalNS int64 `json:"gc_pause_total_ns"`
	GCPauseLastNS  int64 `json:"gc_pause_last_ns"`
}

// DebugStateResponse answers GET /v1/debug/state: a point-in-time
// snapshot of what the server is doing right now — the live flight
// table, admission state, cache totals, runtime health and recent slow
// requests.
type DebugStateResponse struct {
	Schema    int     `json:"schema"`
	RequestID string  `json:"request_id,omitempty"`
	Status    string  `json:"status"` // "ok" or "draining"
	UptimeMS  float64 `json:"uptime_ms"`

	MaxInflight int   `json:"max_inflight"`
	Inflight    int   `json:"inflight"`
	QueueDepth  int64 `json:"queue_depth"`
	QueueCap    int   `json:"queue_cap"`

	Flights []FlightState   `json:"flights"`
	Cache   core.CacheStats `json:"cache"`
	Runtime RuntimeState    `json:"runtime"`
	// SlowRequests are the slow requests among the flight recorder's
	// last telem.DefaultFlightRecords, newest first, at most 20, each in
	// access-log form.
	SlowRequests []obs.RequestRecord `json:"slow_requests"`

	// Telemetry is the persistent store's occupancy and maintenance
	// counters; nil when the server runs without -telemetry-dir.
	Telemetry *telem.Stats `json:"telemetry,omitempty"`
}

// TelemetrySchemaVersion versions the /v1/metrics/range and
// /v1/debug/snapshot contracts, independently of the compile API and
// of the on-disk segment/bundle schemas.
const TelemetrySchemaVersion = 1

// MetricsRangeResponse answers GET /v1/metrics/range. With a name, it
// carries that series' points inside [from, to] folded onto the step
// grid; without one, it lists every series the store knows.
type MetricsRangeResponse struct {
	Schema    int    `json:"schema"`
	RequestID string `json:"request_id,omitempty"`

	Name   string `json:"name,omitempty"`
	FromMS int64  `json:"from_ms"`
	ToMS   int64  `json:"to_ms"`
	StepMS int64  `json:"step_ms,omitempty"`
	// Points is never null: an empty range is []. On a series listing
	// (no name) it is [] and Series carries the names.
	Points []telem.Point `json:"points"`
	Series []string      `json:"series,omitempty"`
}

// SnapshotResponse answers POST /v1/debug/snapshot: where the manual
// postmortem bundle landed.
type SnapshotResponse struct {
	Schema    int    `json:"schema"`
	RequestID string `json:"request_id,omitempty"`
	Trigger   string `json:"trigger"`
	Path      string `json:"path"`
	// Requests is how many flight-recorder records the bundle carries.
	Requests int `json:"requests"`
}
