package obs

// Structured access logging: one JSON object per line per request, the
// service operator's primary "what is this server doing" stream. The
// schema is part of the operational contract (the server's golden test
// pins the field set); new fields may be added, existing ones must not
// be renamed or change type.

import (
	"encoding/json"
	"io"
	"os"
	"sync"
)

// AccessCache is the cache-layer traffic one evaluation generated,
// mirrored from core.CacheStats without importing it (core depends on
// obs, not the reverse). A schedule hit with a comm miss is the sweep
// fast path; all-hits is a fully warm request.
type AccessCache struct {
	CommHits    int64 `json:"comm_hits"`
	CommMisses  int64 `json:"comm_misses"`
	SchedHits   int64 `json:"sched_hits"`
	SchedMisses int64 `json:"sched_misses"`
	// DiskHits/DiskMisses are the persistent layer's share: lookups the
	// memory front missed that a disk record served (or failed to).
	// Zero — and omitted — when the cache runs memory-only.
	DiskHits   int64 `json:"disk_hits,omitempty"`
	DiskMisses int64 `json:"disk_misses,omitempty"`
}

// RequestRecord is everything one request did, written once when it
// ends: the access-log line, the flight recorder's ring entry, the
// debug state's slow list and a postmortem bundle's request all carry
// it. Omitempty fields only apply to evaluation endpoints
// (compile/verify/report) or to specific statuses (QueueDepth on 429s,
// Phases past the slow threshold in the access log).
type RequestRecord struct {
	// Time is the request's arrival time, RFC 3339 with milliseconds.
	Time string `json:"ts"`
	// ID is the request id (accepted X-Request-ID or generated).
	ID string `json:"id"`
	// Endpoint is the handler's short name ("compile", "healthz", ...).
	Endpoint string `json:"endpoint"`
	Method   string `json:"method"`
	Path     string `json:"path"`
	Status   int    `json:"status"`
	// Bytes counts response body bytes written.
	Bytes int64 `json:"bytes"`
	// DurMS is the full request wall time, decode to last byte.
	DurMS float64 `json:"dur_ms"`

	// Role is the dedup attribution of an evaluation: "leader" ran the
	// engine with at least one follower attached, "solo" ran it alone,
	// "follower" joined a leader's in-flight evaluation, and "memo" was
	// answered from the Metrics stored in qschedd's build memo (no
	// evaluation, so no queue wait, eval time or cache block).
	Role string `json:"role,omitempty"`
	// LeaderID is the id of the request whose evaluation a follower
	// inherited (set on followers only).
	LeaderID string `json:"leader_id,omitempty"`
	// Fingerprint is the compiled program's content fingerprint.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Key is the full singleflight/dedup key (fingerprint + config).
	Key string `json:"key,omitempty"`
	// QueueWaitMS is time spent waiting for an admission slot.
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	// EvalMS is the engine evaluation wall time (leader's, inherited by
	// followers).
	EvalMS float64 `json:"eval_ms,omitempty"`
	// Cache is the cache-layer traffic of this request's evaluation.
	Cache *AccessCache `json:"cache,omitempty"`

	// QueueDepth is the admission queue depth observed when the request
	// was rejected with 429.
	QueueDepth int64 `json:"queue_depth,omitempty"`

	// Slow marks requests over the server's slow threshold. Phases is
	// the per-phase span breakdown from the request's Tracer; the access
	// log carries it only on slow requests.
	Slow   bool           `json:"slow,omitempty"`
	Phases []PhaseSummary `json:"phases,omitempty"`

	// Err is the error message of a failed request (4xx/5xx).
	Err string `json:"error,omitempty"`

	// Spans are the completed spans Phases was folded from, and
	// Decisions the first 64 records of the evaluation's scheduler
	// decision log, in task order.
	// Both are postmortem payload: never in the access log.
	Spans     []SpanEvent `json:"spans,omitempty"`
	Decisions []Decision  `json:"decisions,omitempty"`
}

// Logged returns the record as the access log writes it: spans and
// decisions dropped, and phases dropped unless the request was slow.
func (r RequestRecord) Logged() RequestRecord {
	r.Spans, r.Decisions = nil, nil
	if !r.Slow {
		r.Phases = nil
	}
	return r
}

// AccessLog serializes request records as JSON lines. A nil
// *AccessLog is the disabled logger: Log no-ops, so instrumented paths
// call straight through without guarding.
type AccessLog struct {
	mu   sync.Mutex
	w    io.Writer
	path string   // non-empty on file-backed logs (Reopen works)
	f    *os.File // the open file of a file-backed log
}

// NewAccessLog returns a logger writing to w (nil w returns the
// disabled nil logger).
func NewAccessLog(w io.Writer) *AccessLog {
	if w == nil {
		return nil
	}
	return &AccessLog{w: w}
}

// NewAccessLogFile returns a logger appending to the file at path
// (created if missing). A file-backed log supports Reopen, the
// log-rotation half of the SIGHUP convention.
func NewAccessLogFile(path string) (*AccessLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &AccessLog{w: f, path: path, f: f}, nil
}

// Reopen closes and reopens a file-backed sink at its original path:
// the operator renames the live file aside, signals SIGHUP, and
// subsequent lines land in a fresh file. The swap happens under the
// write lock, so no line is dropped, split across files, or
// interleaved. On failure the old sink stays in place. Non-file sinks
// (and the nil logger) no-op.
func (l *AccessLog) Reopen() error {
	if l == nil || l.path == "" {
		return nil
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.mu.Lock()
	old := l.f
	l.f, l.w = f, f
	l.mu.Unlock()
	return old.Close()
}

// Close closes a file-backed sink (other sinks are the caller's).
func (l *AccessLog) Close() error {
	if l == nil || l.f == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Log writes one record's Logged form as a single JSON line. Marshal
// happens outside the lock; the write is a single call so concurrent
// records never interleave (line-buffered sinks like files and pipes
// keep lines whole).
func (l *AccessLog) Log(rec *RequestRecord) {
	if l == nil {
		return
	}
	buf, err := json.Marshal(rec.Logged())
	if err != nil {
		return // an entry that cannot marshal is dropped, never panics
	}
	buf = append(buf, '\n')
	l.mu.Lock()
	_, _ = l.w.Write(buf)
	l.mu.Unlock()
}
