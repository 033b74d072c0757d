package main

// The service workloads drive an in-process qschedd — server.New at
// the daemon's defaults, served over loopback HTTP — from closed-loop
// clients: each client sends its next request only after the previous
// one completed, taking the next unsent request of the seeded sequence.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scaffold-go/multisimd/internal/cas"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/request"
	"github.com/scaffold-go/multisimd/internal/server"
)

// svcReq is one /v1/compile request of a workload's sequence.
type svcReq struct {
	cfg  request.Config
	body []byte
	src  string // program source the server builds
}

func newSvcReq(cfg request.Config, src string) svcReq {
	body, err := json.Marshal(cfg)
	if err != nil {
		panic(err) // a Config of strings, ints and bools always marshals
	}
	return svcReq{cfg: cfg.WithDefaults(), body: body, src: src}
}

// reply is what a client got back for one request.
type reply struct {
	status int
	body   []byte
	err    error
}

// metrics decodes a successful /v1/compile answer.
func (r reply) metrics() (server.MetricsBody, error) {
	if r.err != nil {
		return server.MetricsBody{}, r.err
	}
	if r.status != http.StatusOK {
		return server.MetricsBody{}, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var resp server.CompileResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return server.MetricsBody{}, fmt.Errorf("decode response: %w", err)
	}
	return resp.Metrics, nil
}

// service is a running in-process daemon.
type service struct {
	cache *core.EvalCache
	srv   *server.Server
	hs    *http.Server
	url   string
	done  chan struct{}
	http  *http.Client
	alog  *bytes.Buffer // access log, when enabled
}

// boot opens the cache, starts server.New at daemon defaults on a
// loopback port and returns once it accepts connections. With
// accessLog, the daemon's JSON access log is captured.
func boot(cc core.CacheConfig, clients int, accessLog bool) (*service, error) {
	cache, err := core.OpenEvalCache(cc)
	if err != nil {
		return nil, err
	}
	s := &service{cache: cache, done: make(chan struct{})}
	opts := server.Options{Cache: cache}
	if accessLog {
		s.alog = &bytes.Buffer{}
		opts.AccessLog = obs.NewAccessLog(s.alog)
	}
	s.srv = server.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		cache.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	s.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	return s, nil
}

// close shuts the listener down after in-flight requests finish, then
// stops the server and the cache's background work.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // on timeout Close below aborts the stragglers
	<-s.done
	s.srv.Close()
	s.cache.Close()
	s.http.CloseIdleConnections()
}

// compile posts one request, tagged with the op's request id.
func (s *service) compile(id string, body []byte) reply {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("X-Request-ID", id)
	resp, err := s.http.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: data, err: err}
}

// counter reads one counter of the daemon's /metrics.json.
func (s *service) counter(name string) (int64, error) {
	resp, err := s.http.Get(s.url + "/metrics.json")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, fmt.Errorf("metrics.json: %w", err)
	}
	return snap.Counters[name], nil
}

// accessLine is the part of an access-log line the traced run reads.
type accessLine struct {
	ID          string  `json:"id"`
	Status      int     `json:"status"`
	Fingerprint string  `json:"fingerprint"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	EvalMS      float64 `json:"eval_ms"`
}

// accessLog parses the captured log, keyed by request id. Call after
// close, when every handler has written its line.
func (s *service) accessLog() (map[string]accessLine, error) {
	out := map[string]accessLine{}
	sc := bufio.NewScanner(s.alog)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var l accessLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		out[l.ID] = l
	}
	return out, sc.Err()
}

// closedLoop runs op(lane, i) for every i < n from `clients` goroutines
// and returns when all are done. Lanes are numbered from 1.
func closedLoop(n, clients int, op func(lane, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(c+1, i)
			}
		}()
	}
	wg.Wait()
}

// served is one op's decoded answer.
type served struct {
	m   server.MetricsBody
	err error
}

// drive sends every request through a closed loop, recording each op's
// timing and decoded answer. Each reply is decoded as it arrives:
// a heap that grew by every reply body would space the daemon's GC
// cycles further apart as the run went on, and the run would speed up
// as it goes.
func (s *service) drive(reqs []svcReq, clients int) ([]served, opTimes) {
	out := make([]served, len(reqs))
	times := newOpTimes(len(reqs))
	closedLoop(len(reqs), clients, func(_, i int) {
		t0 := time.Now()
		r := s.compile(opID(i), reqs[i].body)
		times.record(i, t0)
		out[i].m, out[i].err = r.metrics()
	})
	return out, times
}

func opID(i int) string { return "op-" + strconv.Itoa(i) }

// tracedOp is one traced op's answer and replay findings; its err also
// carries a replay failure or a disagreement with the answer.
type tracedOp struct {
	served
	lane    int
	fp      string // program fingerprint of the replayed front end
	inlined int64  // flatten.Stats.InlinedCallOps of the replay
}

// tracedDrive sends the sequence exactly as drive does, with a span
// around each HTTP call ("server", under the op's "op" span). Then it
// replays each op's server-side work in process, layer by layer, under
// a "replay" span of the same op: the front end, Config.Key and the
// evaluation. Replaying after the loop keeps the daemon's load what the
// untraced run sees.
func (s *service) tracedDrive(t *tracer, reqs []svcReq, clients int, rp *replayer) []tracedOp {
	out := make([]tracedOp, len(reqs))
	closedLoop(len(reqs), clients, func(lane, i int) {
		op := &out[i]
		op.lane = lane
		root := t.begin("op", -1, i, lane)
		sp := t.begin("server", root, i, lane)
		r := s.compile(opID(i), reqs[i].body)
		t.end(sp)
		t.end(root)
		op.m, op.err = r.metrics()
	})
	for i := range out {
		op := &out[i]
		rr := t.begin("replay", -1, i, op.lane)
		if op.err == nil {
			var res evalResult
			res, op.err = replayRequest(scope{t, rr, i, op.lane}, reqs[i], rp, op)
			m := op.m
			if got := (evalResult{m.TotalGates, m.MinQubits, m.ZeroCommSteps, m.CommCycles}); op.err == nil && got != res {
				op.err = fmt.Errorf("served %+v, replay %+v", got, res)
			}
		}
		t.end(rr)
	}
	return out
}

// replayRequest repeats the server's work for one request, noting the
// replayed program's fingerprint and flattening count in op, and
// returns the replayed evaluation.
func replayRequest(sc scope, r svcReq, rp *replayer, op *tracedOp) (evalResult, error) {
	// A workload's requests share one comm configuration, so the schedule
	// layer is never hit across requests; dropping it bounds memory.
	clear(rp.memo.sched)
	p, st, err := frontend(sc, r.src, r.cfg.FTh)
	if err != nil {
		return evalResult{}, err
	}
	op.inlined = int64(st.InlinedCallOps)
	_, end := sc.span("ir.fingerprint")
	key := r.cfg.Key(p)
	end()
	op.fp = strings.SplitN(key, "|", 2)[0] // the key leads with the program fingerprint
	sched, err := core.SchedulerByName(r.cfg.Scheduler)
	if err != nil {
		return evalResult{}, err
	}
	esc, end := sc.span("replay.evaluate")
	defer end()
	return rp.evaluate(esc, p, sched, r.cfg.K, r.cfg.D, r.cfg.Comm())
}

// serviceTrace finishes a service workload's traced run: it reads the
// access log and metrics of the traced daemon and derives the server
// layer's numbers.
func serviceTrace(c config, o *outcome, tr *traceReport, s *service, ops []tracedOp) error {
	errs0, err := s.counter("server.errors")
	if err != nil {
		return err
	}
	s.close()
	log, err := s.accessLog()
	if err != nil {
		return err
	}
	var queue, eval float64
	for i, op := range ops {
		l, ok := log[opID(i)]
		tr.inlined += op.inlined
		switch {
		case op.err != nil:
			o.fail(i, "traced: %v", op.err)
		case !ok:
			o.fail(i, "traced: no access-log line")
		case l.Fingerprint != op.fp:
			o.fail(i, "traced: replayed fingerprint %s, served %s", op.fp, l.Fingerprint)
		}
		queue += l.QueueWaitMS
		eval += l.EvalMS
	}
	tr.evalWall = time.Duration(eval * float64(time.Millisecond))
	// What the layers explain of an HTTP call: the replayed front end
	// and Config.Key plus the daemon's own Evaluate wall (its engine
	// overlaps layers, so the replayed evaluation's serial sum would
	// overstate it). The rest is the server layer's self time: HTTP,
	// JSON, admission and handler work outside every named layer.
	var server, front time.Duration
	for _, sp := range tr.t.spans {
		switch {
		case sp.name == "server":
			server += sp.end - sp.start
		case sp.parent >= 0 && tr.t.spans[sp.parent].name == "replay" &&
			sp.name != "replay.evaluate":
			front += sp.end - sp.start
		}
	}
	tr.explained = front + tr.evalWall
	o.layers, err = tr.finish(c)
	if err != nil {
		return err
	}
	n := float64(len(ops))
	o.layers["server.self_ms_per_op"] = metric{ms(server-tr.explained) / n, "ms"}
	o.layers["server.queue_wait_ms_per_op"] = metric{queue / n, "ms"}
	o.layers["server.non2xx_per_op"] = metric{float64(errs0) / n, "count"}
	return nil
}

// casScratch replays the result store's traffic on a scratch store:
// per op, as many Puts as the daemon's store wrote, of the average
// record size it wrote, and a Get of an absent key per disk miss.
type casScratch struct {
	store    *cas.Store
	seq      uint64
	put, get time.Duration // summed span time of the replayed calls
}

func openScratch(dir string) (*casScratch, error) {
	st, err := cas.Open(cas.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	return &casScratch{store: st}, nil
}

// replay performs one op's store traffic, given the daemon cache's
// counters before and after the op.
func (cs *casScratch) replay(sc scope, before, after core.CacheStats) {
	writes := after.DiskWrites - before.DiskWrites
	misses := after.DiskMisses - before.DiskMisses
	var payload []byte
	if writes > 0 {
		payload = make([]byte, (after.DiskBytes-before.DiskBytes)/writes)
	}
	for range writes {
		cs.seq++
		k := cas.NewKey("perfbench", binary.LittleEndian.AppendUint64(nil, cs.seq))
		_, end := sc.span("cas.put")
		t0 := time.Now()
		cs.store.Put(k, payload)
		cs.put += time.Since(t0)
		end()
	}
	for range misses {
		cs.seq++
		k := cas.NewKey("perfbench-miss", binary.LittleEndian.AppendUint64(nil, cs.seq))
		_, end := sc.span("cas.get")
		t0 := time.Now()
		cs.store.Get(k)
		cs.get += time.Since(t0)
		end()
	}
}

// storeCounts are the result store's per-op numbers over ops ops, from
// the daemon cache's counters before and after them and, when the
// store's traffic was replayed, the replay's call times.
func storeCounts(ops int, before, after core.CacheStats, setupDiskHits int64, replayed *casScratch) map[string]metric {
	n := float64(ops)
	var put, get time.Duration
	if replayed != nil {
		put, get = replayed.put, replayed.get
	}
	return map[string]metric{
		"cas.writes_per_op":   {float64(after.DiskWrites-before.DiskWrites) / n, "count"},
		"cas.write_kb_per_op": {float64(after.DiskBytes-before.DiskBytes) / 1024 / n, "KB"},
		"cas.misses_per_op":   {float64(after.DiskMisses-before.DiskMisses) / n, "count"},
		"cas.put.ms_per_op":   {ms(put) / n, "ms"},
		"cas.get.ms_per_op":   {ms(get) / n, "ms"},
		"cas.hits_setup":      {float64(setupDiskHits), "count"},
	}
}
