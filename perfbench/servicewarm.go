package main

// service-warm: two closed-loop clients against a daemon booted over
// the committed bench/baselines/cas corpus as its read-only preload.
// The request set — every gated benchmark at k=2 and k=4, request
// defaults otherwise — is served entirely by that corpus, and set-up
// warms it into memory, so the timed phase is memory hits only: it
// isolates the per-request work the daemon does even when nothing needs
// scheduling (front end, fingerprint, cache lookups, coarse compose,
// HTTP and JSON).

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/request"
	"github.com/scaffold-go/multisimd/internal/server"
)

const (
	preloadDir  = "bench/baselines/cas"
	warmClients = 2 // at most one per core of the 2-core reference host
	// warmPassSeconds is one pass's nominal wall time on a 2-core x86
	// host; it only converts --seconds into a whole number of passes.
	warmPassSeconds = 0.08
	warmSetupReps   = 5
	warmupPasses    = 5
)

// warmSet is the distinct requests, in gated-benchmark order.
func warmSet() []svcReq {
	var set []svcReq
	for _, b := range bench.Gated() {
		for _, k := range []int{2, 4} {
			set = append(set, newSvcReq(request.Config{Bench: b.Name, K: k}, b.Source))
		}
	}
	return set
}

// warmRequests is the op sequence: each pass sends every request of the
// set once, in a seeded order.
func warmRequests(seed int64, passes int) []svcReq {
	set := warmSet()
	rng := rand.New(rand.NewSource(seed))
	seq := make([]svcReq, 0, passes*len(set))
	for range passes {
		for _, j := range rng.Perm(len(set)) {
			seq = append(seq, set[j])
		}
	}
	return seq
}

// warmWant is each request's expected answer, keyed by request body:
// the committed lpfs k=4 baselines, and for k=2 an in-process
// evaluation checked by the legality oracle.
func warmWant() (map[string]server.MetricsBody, error) {
	want := map[string]server.MetricsBody{}
	for _, r := range warmSet() {
		var m server.MetricsBody
		var err error
		if r.cfg.K == 4 {
			m, err = loadBaseline(r.cfg.Bench)
		} else {
			m, err = verified(r.cfg)
		}
		if err != nil {
			return nil, err
		}
		want[string(r.body)] = m
	}
	return want, nil
}

// bootWarm is the set-up a user pays: boot the daemon over the preload,
// then warm-up passes of the request set. The first promotes the disk
// hits into memory; the rest bring the process to its steady state.
func bootWarm(o *outcome, reqs []svcReq, want map[string]server.MetricsBody, accessLog bool) (*service, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	s, err := boot(core.CacheConfig{Preload: preloadDir}, warmClients, accessLog)
	if err != nil {
		return nil, 0, err
	}
	first := reqs[:warmupPasses*len(warmSet())]
	answers, _ := s.drive(first, warmClients)
	d := time.Since(t0)
	for i, a := range answers {
		if err := check(a, want[string(first[i].body)]); err != nil {
			o.breaks("warm-up %s k=%d: %v", first[i].cfg.Bench, first[i].cfg.K, err)
		}
	}
	return s, d, nil
}

func check(a served, want server.MetricsBody) error {
	if a.err != nil {
		return a.err
	}
	if a.m != want {
		return fmt.Errorf("served %+v, want %+v", a.m, want)
	}
	return nil
}

// memoryOnly reports a cache delta that did any work beyond memory
// hits: a scheduler or comm run, or a disk read.
func memoryOnly(d core.CacheStats) error {
	if d.CommMisses != 0 || d.SchedMisses != 0 || d.CPMisses != 0 || d.DiskHits != 0 || d.DiskMisses != 0 {
		return fmt.Errorf("timed phase left memory: comm misses %d, sched misses %d, cp misses %d, disk hits %d, disk misses %d",
			d.CommMisses, d.SchedMisses, d.CPMisses, d.DiskHits, d.DiskMisses)
	}
	return nil
}

func serviceWarm(c config) (*outcome, error) {
	want, err := warmWant()
	if err != nil {
		return nil, err
	}
	np := passes(c.seconds, warmPassSeconds, len(warmSet()))
	reqs := warmRequests(c.seed, np)
	o := &outcome{segment: segmentOps(np, len(warmSet()))}
	var s *service
	for range warmSetupReps {
		if s != nil {
			s.close()
		}
		var d time.Duration
		if s, d, err = bootWarm(o, reqs, want, false); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, d)
	}
	setupHits := s.cache.Stats().DiskHits

	before := s.cache.Stats()
	ph := startPhase()
	var answers []served
	answers, o.opTimes = s.drive(reqs, warmClients)
	ph.stop(o)
	after := s.cache.Stats()
	s.close()
	if err := memoryOnly(after.Sub(before)); err != nil {
		o.breaks("%v", err)
	}
	for i, a := range answers {
		if err := check(a, want[string(reqs[i].body)]); err != nil {
			o.fail(i, "%s k=%d: %v", reqs[i].cfg.Bench, reqs[i].cfg.K, err)
			continue
		}
		o.speedups = append(o.speedups, a.m.SpeedupVsNaive)
	}
	if !c.trace {
		return o, nil
	}

	tr := newTraceReport(o, after.Sub(before), float64(after.MemBytes)/(1<<20))
	s, _, err = bootWarm(o, reqs, want, true)
	if err != nil {
		return nil, err
	}
	// The replayer starts as warm as the daemon's cache.
	rp := newReplayer()
	for _, r := range warmSet() {
		if _, err := replayRequest(scope{}, r, rp, &tracedOp{}); err != nil {
			s.close()
			return nil, err
		}
	}
	rp.counts = replayCounts{}
	tb := s.cache.Stats()
	ops := s.tracedDrive(tr.t, reqs, warmClients, rp)
	if err := memoryOnly(s.cache.Stats().Sub(tb)); err != nil {
		o.breaks("traced: %v", err)
	}
	tr.counts = rp.counts
	if tr.counts.schedCalls != 0 || tr.counts.commCalls != 0 {
		o.breaks("traced: replay ran %d schedules and %d comm analyses on a warm cache",
			tr.counts.schedCalls, tr.counts.commCalls)
	}
	if err := serviceTrace(c, o, tr, s, ops); err != nil {
		return nil, err
	}
	for k, v := range storeCounts(len(reqs), before, after, setupHits, nil) {
		o.layers[k] = v
	}
	return o, nil
}
