package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/obs/telem"
	"github.com/scaffold-go/multisimd/internal/report"
	"github.com/scaffold-go/multisimd/internal/request"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

// maxBodyBytes bounds request bodies; inline programs fit comfortably,
// runaway uploads do not.
const maxBodyBytes = 8 << 20

// statusClientClosedRequest is nginx's convention for "the client went
// away before we could answer"; nobody reads the response, but the
// instruments count it as an error distinctly from server faults.
const statusClientClosedRequest = 499

// maxLogPhases caps the per-phase rows a slow request's access-log
// entry carries; the tail folds into "(other)" rows per category.
const maxLogPhases = 12

// recorderDecisions is how many of a flight's scheduler decisions its
// request record keeps: the first ones, in task order.
const recorderDecisions = 64

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes the structured error envelope, stamping the request
// id and recording the failure on the request's record. r may be nil in
// direct handler tests.
func writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	body := ErrorBody{Code: code, Message: msg}
	var id string
	if r != nil {
		id = requestID(r)
		if rec := recordFrom(r.Context()); rec != nil {
			rec.Err = msg
			if status == http.StatusTooManyRequests {
				body.QueueDepth = rec.QueueDepth
			}
		}
	}
	writeJSON(w, status, ErrorResponse{
		Schema:    SchemaVersion,
		RequestID: id,
		Error:     body,
	})
}

// decode reads one JSON value from the body, strictly: unknown fields,
// trailing garbage and oversized bodies are all bad_request. A false
// return means the 400 has already been written.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
		return false
	}
	if dec.More() {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// evalResult is what one evaluation flight produces: the metrics,
// the evaluation's share of the request record and, when profiling was
// requested, the assembled schedule report. Followers inherit the
// leader's stats (the evaluation happened once); their records tell
// them apart by role and leader id.
type evalResult struct {
	m   *core.Metrics
	rep *report.Report
	// stats carries the evaluation's fields of the request record:
	// queue wait, eval wall, cache traffic, phases and, with telemetry
	// on, spans and the first decisions.
	stats obs.RequestRecord
}

// evaluate runs req, whose flight key is key, through the shared
// flight group: identical concurrent requests collapse onto one
// admission slot and one engine run against the shared cache. A
// successful run's Metrics are kept on the memo entry of bk, under the
// flight key of the plain request. The boolean reports whether this
// call joined an existing flight.
func (s *Server) evaluate(ctx context.Context, req request.Config, key string, bk buildKey, b builtProgram) (evalResult, bool, error) {
	p, fp := b.p, b.d.Program
	fn := func(workCtx context.Context) (any, error) {
		s.wg.Add(1)
		defer s.wg.Done()
		admitStart := time.Now()
		release, err := s.admit(workCtx)
		if err != nil {
			return nil, err
		}
		defer release()
		queueWait := time.Since(admitStart)
		evalCtx, cancel := context.WithTimeout(workCtx, s.opts.Timeout)
		defer cancel()

		eopts, err := req.EvalOptions()
		if err != nil {
			return nil, err
		}
		eopts.Cache = s.cache
		eopts.Workers = s.opts.Workers
		// Each flight runs under its own tracer so a slow request can
		// dump exactly its own phase breakdown; engine counters still
		// aggregate into the shared registry.
		tr := obs.NewTracer()
		eopts.Obs = &obs.Observer{Trace: tr, Metrics: s.reg}
		// With telemetry on, also capture the scheduler's decision log
		// so a postmortem can say not just how long the schedule phase
		// took but what it chose.
		if s.telem != nil {
			eopts.Obs.Decisions = obs.NewDecisionLogLimit(obs.LevelStep, recorderDecisions)
		}
		// The cache is shared by every concurrent flight, so a global
		// Stats() delta around the evaluation would bleed other flights'
		// hits and misses into this request's log. A per-evaluation
		// recorder attributes exactly this run's traffic.
		cacheRec := &core.CacheRecorder{}
		eopts.CacheStats = cacheRec
		epoch := s.memo.epoch()
		evalStart := time.Now()
		m, err := core.EvaluateDigests(evalCtx, p, b.d.Modules, eopts)
		if err != nil {
			return nil, err
		}
		answerKey := key
		if req.Verify || req.Profile {
			plain := req
			plain.Verify, plain.Profile = false, false
			answerKey = plain.KeyOf(fp)
		}
		s.memo.keep(bk, fp, answerKey, *m, epoch)
		delta := cacheRec.Stats()
		res := evalResult{m: m, stats: obs.RequestRecord{
			QueueWaitMS: float64(queueWait.Microseconds()) / 1000,
			EvalMS:      float64(time.Since(evalStart).Microseconds()) / 1000,
			Cache: &obs.AccessCache{
				CommHits: delta.CommHits, CommMisses: delta.CommMisses,
				SchedHits: delta.SchedHits, SchedMisses: delta.SchedMisses,
				DiskHits: delta.DiskHits, DiskMisses: delta.DiskMisses,
			},
			Phases: tr.Phases(maxLogPhases),
		}}
		if s.telem != nil {
			res.stats.Spans = tr.Events()
			res.stats.Decisions = eopts.Obs.Decisions.Entries()
		}
		if req.Profile {
			if res.rep, err = core.BuildReport(evalCtx, p, req.Label(), m, eopts); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	val, deduped, leaderID, shared, err := s.flights.do(ctx, s.base, key, fn)
	if deduped {
		s.dedupCounter.Inc()
	}
	rec := recordFrom(ctx)
	if rec != nil {
		rec.Key = key
		rec.Fingerprint = fp.String()
		switch {
		case deduped:
			rec.Role = "follower"
			rec.LeaderID = leaderID
		case shared:
			rec.Role = "leader"
		default:
			rec.Role = "solo"
		}
	}
	if err != nil {
		return evalResult{}, deduped, err
	}
	res := val.(evalResult)
	if rec != nil {
		st := &res.stats
		rec.QueueWaitMS, rec.EvalMS, rec.Cache = st.QueueWaitMS, st.EvalMS, st.Cache
		rec.Phases, rec.Spans, rec.Decisions = st.Phases, st.Spans, st.Decisions
	}
	return res, deduped, nil
}

// writeEvalError maps an evaluation failure to its transport shape.
func (s *Server) writeEvalError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfterSecs(), 10))
		if r != nil {
			if rec := recordFrom(r.Context()); rec != nil {
				rec.QueueDepth = s.queued.Load()
			}
		}
		writeError(w, r, http.StatusTooManyRequests, CodeOverloaded,
			"evaluation queue full; retry shortly")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, r, http.StatusGatewayTimeout, CodeTimeout,
			"evaluation exceeded the request deadline")
	case errors.Is(err, context.Canceled):
		if s.draining.Load() {
			writeError(w, r, http.StatusServiceUnavailable, CodeShuttingDown,
				"server shutting down")
			return
		}
		writeError(w, r, statusClientClosedRequest, CodeBadRequest,
			"client closed request")
	default:
		writeError(w, r, http.StatusUnprocessableEntity, CodeEvalFailed, err.Error())
	}
}

// parseConfig decodes, defaults and validates the shared request
// config; on failure the error response has been written and ok is
// false.
func (s *Server) parseConfig(w http.ResponseWriter, r *http.Request) (request.Config, bool) {
	var req request.Config
	if !s.decode(w, r, &req) {
		return req, false
	}
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		writeError(w, r, http.StatusBadRequest, CodeInvalid, err.Error())
		return req, false
	}
	return req, true
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	req, ok := s.parseConfig(w, r)
	if !ok {
		return
	}
	res, deduped, err := s.compile(w, r, req)
	if err != nil {
		return
	}
	writeJSON(w, http.StatusOK, CompileResponse{
		Schema:    SchemaVersion,
		RequestID: requestID(r),
		Label:     req.Label(),
		Request:   req,
		Deduped:   deduped,
		Metrics:   res.m.Wire(),
	})
}

// compile builds (or takes from the build memo) and evaluates req,
// writing the error response itself on failure (callers just return on
// err != nil). A plain request whose program came from the memo is
// answered from the Metrics stored with it when there are any: no
// admission, flight, tracer or engine run.
func (s *Server) compile(w http.ResponseWriter, r *http.Request, req request.Config) (evalResult, bool, error) {
	b, bk, memoized, err := s.program(req)
	if err != nil {
		status := buildStatus(err)
		writeError(w, r, status, codeFor(status), err.Error())
		return evalResult{}, false, err
	}
	// The build's one hashing pass keys the request and the engine's
	// leaves.
	key := req.KeyOf(b.d.Program)
	if memoized && !req.Verify && !req.Profile {
		if m, ok := s.memo.answer(bk, key); ok {
			if rec := recordFrom(r.Context()); rec != nil {
				rec.Key, rec.Fingerprint, rec.Role = key, b.d.Program.String(), "memo"
			}
			return evalResult{m: &m}, false, nil
		}
	}
	res, deduped, err := s.evaluate(r.Context(), req, key, bk, b)
	if err != nil {
		s.writeEvalError(w, r, err)
	}
	return res, deduped, err
}

// buildStatus maps a failure of Server.program to its HTTP status: a
// source that does not build is the client's 400; a memo entry a Verify
// request rejects fails like an audit rejection, 422.
func buildStatus(err error) int {
	if errors.Is(err, errStaleBuild) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	req, ok := s.parseConfig(w, r)
	if !ok {
		return
	}
	req.Verify = true
	res, deduped, err := s.compile(w, r, req)
	if err != nil {
		return
	}
	writeJSON(w, http.StatusOK, VerifyResponse{
		Schema:    SchemaVersion,
		RequestID: requestID(r),
		Label:     req.Label(),
		Request:   req,
		Deduped:   deduped,
		Verified:  true,
		Metrics:   res.m.Wire(),
	})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	req, ok := s.parseConfig(w, r)
	if !ok {
		return
	}
	req.Profile = true
	res, _, err := s.compile(w, r, req)
	if err != nil {
		return
	}
	// report.Report is itself the versioned contract (Schema field).
	writeJSON(w, http.StatusOK, res.rep)
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var sreq ScheduleRequest
	if !s.decode(w, r, &sreq) {
		return
	}
	sreq.Config = sreq.Config.WithDefaults()
	if err := sreq.Config.Validate(); err != nil {
		writeError(w, r, http.StatusBadRequest, CodeInvalid, err.Error())
		return
	}
	if sreq.Module == "" {
		writeError(w, r, http.StatusBadRequest, CodeInvalid, "module is required")
		return
	}
	release, err := s.admit(r.Context())
	if err != nil {
		s.writeEvalError(w, r, err)
		return
	}
	defer release()

	resp, code, err := s.scheduleModule(sreq)
	if err != nil {
		writeError(w, r, code, codeFor(code), err.Error())
		return
	}
	resp.RequestID = requestID(r)
	writeJSON(w, http.StatusOK, resp)
}

func codeFor(status int) string {
	if status == http.StatusBadRequest {
		return CodeCompileFailed
	}
	return CodeEvalFailed
}

// scheduleModule produces the fine-grained leaf schedule the CLI's
// -dump flag prints, as a structured response.
func (s *Server) scheduleModule(sreq ScheduleRequest) (*ScheduleResponse, int, error) {
	b, _, _, err := s.program(sreq.Config)
	if err != nil {
		return nil, buildStatus(err), err
	}
	mod, err := request.LeafModule(b.p, sreq.Module)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	eopts, err := sreq.Config.EvalOptions()
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	ls, err := sreq.Config.ScheduleLeaf(mod, eopts.Scheduler)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	return &ScheduleResponse{
		Schema:       SchemaVersion,
		Module:       sreq.Module,
		Ops:          ls.G.Len(),
		CriticalPath: ls.G.CriticalPath(),
		Steps:        ls.S.Length(),
		Cycles:       ls.Comm.Cycles,
		GlobalMoves:  ls.Comm.GlobalMoves,
		LocalMoves:   ls.Comm.LocalMoves,
		EPR: EPRBody{
			Bandwidth:   ls.EPR.Bandwidth,
			Latency:     ls.EPR.Latency,
			Pairs:       ls.Plan.Pairs,
			PreIssued:   ls.Plan.PreIssued,
			MaxBuffered: ls.Plan.MaxBuffered,
			MakespanOK:  ls.Plan.MakespanOK,
		},
		Text: ls.Text,
	}, http.StatusOK, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Schema:   SchemaVersion,
		Status:   status,
		Inflight: len(s.sem),
		Queued:   s.queued.Load(),
		Cache:    s.cache.Stats(),
	})
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	var benches []string
	for _, b := range bench.Gated() {
		benches = append(benches, b.Name)
	}
	writeJSON(w, http.StatusOK, VersionResponse{
		Schema:     SchemaVersion,
		Service:    "qschedd",
		API:        "v1",
		GoVersion:  runtime.Version(),
		Schedulers: schedule.Names(),
		Benchmarks: benches,
	})
}

// debugState assembles the introspection snapshot (shared by the JSON
// endpoint and the dashboard).
func (s *Server) debugState() DebugStateResponse {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	infos := s.flights.snapshot()
	flights := make([]FlightState, 0, len(infos))
	for _, fi := range infos {
		flights = append(flights, FlightState{
			Key:      fi.key,
			AgeMS:    float64(fi.age.Microseconds()) / 1000,
			Waiters:  fi.waiters,
			LeaderID: fi.leaderID,
		})
	}
	sort.Slice(flights, func(i, j int) bool { return flights[i].AgeMS > flights[j].AgeMS })
	var telemStats *telem.Stats
	if s.telem != nil {
		st := s.telem.Stats()
		telemStats = &st
	}
	return DebugStateResponse{
		Schema:      DebugSchemaVersion,
		Status:      status,
		UptimeMS:    float64(time.Since(s.started).Microseconds()) / 1000,
		MaxInflight: s.opts.MaxInflight,
		Inflight:    len(s.sem),
		QueueDepth:  s.queued.Load(),
		QueueCap:    s.opts.MaxQueue,
		Flights:     flights,
		Cache:       s.cache.Stats(),
		Runtime: RuntimeState{
			Goroutines:     s.reg.Gauge(obs.GaugeGoroutines).Value(),
			HeapAllocBytes: s.reg.Gauge(obs.GaugeHeapAlloc).Value(),
			HeapSysBytes:   s.reg.Gauge(obs.GaugeHeapSys).Value(),
			GCCount:        s.reg.Gauge(obs.GaugeGCCount).Value(),
			GCPauseTotalNS: s.reg.Gauge(obs.GaugeGCPauseTotal).Value(),
			GCPauseLastNS:  s.reg.Gauge(obs.GaugeGCPauseLast).Value(),
		},
		SlowRequests: s.slowRequests(),
		Telemetry:    telemStats,
	}
}

// maxSlowRequests bounds the slow list of the debug state and dashboard.
const maxSlowRequests = 20

// slowRequests filters the flight recorder's ring down to its slow
// requests, newest first, in access-log form (never null: [] when none).
func (s *Server) slowRequests() []obs.RequestRecord {
	recent := s.recorder.Recent()
	out := []obs.RequestRecord{}
	for i := len(recent) - 1; i >= 0 && len(out) < maxSlowRequests; i-- {
		if recent[i].Slow {
			out = append(out, recent[i].Logged())
		}
	}
	return out
}

func (s *Server) handleDebugState(w http.ResponseWriter, r *http.Request) {
	state := s.debugState()
	state.RequestID = requestID(r)
	writeJSON(w, http.StatusOK, state)
}
