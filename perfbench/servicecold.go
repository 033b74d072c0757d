package main

// service-cold: one closed-loop client sends a unique seeded program per
// request, so every request runs the whole compile: front end,
// schedulers, comm analysis, cache inserts and, under a memory budget
// below the run's working set, LRU evictions. It is the write-side twin
// of service-warm. One client, because two clients on two cores made
// identical runs differ by a quarter.
//
// The timed daemons run without the write-through result store: it
// would have to live in the checkout, and on a VM's disk it made
// identical runs differ twofold (36 against 18 ops/s) where memory-only
// runs stayed within 11%. The traced run measures the store on one pass
// of a separate store-backed daemon (storeSample).

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/request"
	"github.com/scaffold-go/multisimd/internal/verify"
)

const (
	coldClients = 1
	coldPassOps = 30
	// coldPassSeconds is one pass's nominal wall time on a 2-core x86
	// host; it only converts --seconds into a whole number of passes.
	coldPassSeconds = 0.75
	// coldMemBudget bounds the daemon's in-memory cache below what a
	// run's programs need, so eviction runs throughout the timed phase.
	coldMemBudget = 4 << 20
	coldSetupReps = 3
)

// coldProgram is the generator profile: two call levels, 64-op leaves,
// counted loops and measurement.
var coldProgram = verify.ProgramGenOptions{LeafOps: 64, Loops: true, Measure: true}

// coldRequests generates the op sequence: n distinct random programs,
// rendered as Scaffold source, each for a seeded choice of scheduler.
func coldRequests(seed int64, n int) ([]svcReq, error) {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]svcReq, n)
	for i := range reqs {
		src, err := verify.ProgramScaffold(verify.RandomProgram(rng, coldProgram))
		if err != nil {
			return nil, err
		}
		sched := []string{"lpfs", "rcp"}[rng.Intn(2)]
		reqs[i] = newSvcReq(request.Config{Source: src, Scheduler: sched}, src)
	}
	return reqs, nil
}

// bootCold is the set-up a user pays: generate the programs, boot the
// daemon (over an empty result store in dir, unless dir is empty), and
// send one warm-up pass of
// programs not in the timed sequence, which fills the memory budget so
// the timed phase starts with eviction already running.
func bootCold(o *outcome, seed int64, n int, dir string, accessLog bool) (*service, []svcReq, time.Duration, error) {
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, 0, err
		}
	}
	runtime.GC()
	t0 := time.Now()
	all, err := coldRequests(seed, coldPassOps+n)
	if err != nil {
		return nil, nil, 0, err
	}
	s, err := boot(core.CacheConfig{Dir: dir, MemBytes: coldMemBudget}, coldClients, accessLog)
	if err != nil {
		return nil, nil, 0, err
	}
	warm, reqs := all[:coldPassOps], all[coldPassOps:]
	answers, _ := s.drive(warm, coldClients)
	for i, a := range answers {
		if a.err != nil {
			o.breaks("warm-up program %d: %v", i, a.err)
		}
	}
	return s, reqs, time.Since(t0), nil
}

func serviceCold(c config) (*outcome, error) {
	np := passes(c.seconds, coldPassSeconds, coldPassOps)
	n := np * coldPassOps
	o := &outcome{segment: segmentOps(np, coldPassOps)}
	var s *service
	var reqs []svcReq
	for range coldSetupReps {
		if s != nil {
			s.close()
		}
		var d time.Duration
		var err error
		if s, reqs, d, err = bootCold(o, c.seed, n, "", false); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, d)
	}

	before := s.cache.Stats()
	ph := startPhase()
	var answers []served
	answers, o.opTimes = s.drive(reqs, coldClients)
	ph.stop(o)
	after := s.cache.Stats()
	s.close()

	// Untimed: every served answer must equal an independent in-process
	// evaluation checked by the legality oracle.
	for i, a := range answers {
		want, err := verified(reqs[i].cfg)
		if err == nil {
			err = check(a, want)
		}
		if err != nil {
			o.fail(i, "%v", err)
			continue
		}
		o.speedups = append(o.speedups, a.m.SpeedupVsNaive)
	}
	if after.MemEvictions == before.MemEvictions {
		o.breaks("no cache evictions: the memory budget no longer binds")
	}
	if !c.trace {
		return o, nil
	}

	tr := newTraceReport(o, after.Sub(before), float64(after.MemBytes)/(1<<20))
	// A fresh daemon, so the traced ops do the same cold work.
	s, _, _, err := bootCold(o, c.seed, n, "", true)
	if err != nil {
		return nil, err
	}
	rp := newReplayer()
	ops := s.tracedDrive(tr.t, reqs, coldClients, rp)
	tr.counts = rp.counts
	store, err := storeSample(c, o, tr.t, reqs[:coldPassOps])
	if err != nil {
		s.close()
		return nil, err
	}
	if err := serviceTrace(c, o, tr, s, ops); err != nil {
		return nil, err
	}
	for k, v := range store {
		o.layers[k] = v
	}
	return o, nil
}

// storeSample measures the cas layer, which the timed daemons leave out:
// a daemon that writes through to a result store in the checkout
// compiles the first pass of the sequence, and each op's store traffic
// is replayed on a scratch store under a "store" span of the op.
func storeSample(c config, o *outcome, t *tracer, sample []svcReq) (map[string]metric, error) {
	dir := filepath.Join(c.outDir, fmt.Sprintf("store-%d", os.Getpid()))
	scratchDir := filepath.Join(c.outDir, fmt.Sprintf("scratch-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	defer os.RemoveAll(scratchDir)
	s, _, _, err := bootCold(o, c.seed, 0, dir, false)
	if err != nil {
		return nil, err
	}
	defer s.close()
	fmt.Printf("service-cold: result store on %s\n", fsType(dir))
	scratch, err := openScratch(scratchDir)
	if err != nil {
		return nil, err
	}
	defer scratch.store.Close()
	setupHits := s.cache.Stats().DiskHits
	first := s.cache.Stats()
	for i, r := range sample {
		before := s.cache.Stats() // one client: the delta is this op's
		if _, err := s.compile(opID(i), r.body).metrics(); err != nil {
			o.fail(i, "store sample: %v", err)
		}
		root := t.begin("store", -1, i, 1)
		scratch.replay(scope{t, root, i, 1}, before, s.cache.Stats())
		t.end(root)
	}
	return storeCounts(len(sample), first, s.cache.Stats(), setupHits, scratch), nil
}
