package main

// paper-sweep is the paper's own experiment as a batch job: each op
// builds one gated benchmark and runs core.Fig6, Fig7 and Fig8 on a
// fresh EvalCache with one engine worker per CPU. It loads the front
// end, the schedulers, comm analysis and the evaluation cache's memory
// layers; no server and no disk store are involved.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/flatten"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/resource"
	"github.com/scaffold-go/multisimd/internal/server"
)

// sweepFTh is the exploration-scale flattening threshold of the
// committed baselines and of the service's request defaults.
const sweepFTh = 2000

// sweepPassSeconds is one pass's nominal wall time on a 2-core x86
// host; it only converts --seconds into a whole number of passes.
const sweepPassSeconds = 0.5

const (
	sweepSetupReps    = 3
	sweepWarmupPasses = 3
)

// sweepCells is what one op produces: its program and the three
// figure rows.
type sweepCells struct {
	prog    *ir.Program
	f6      core.Fig6Row
	f7      core.Fig7Row
	f8      core.Fig8Row
	figWall time.Duration // wall of the three figure calls
	cache   core.CacheStats
}

// naive lists every Fig. 7 and Fig. 8 cell: speedups over the naive
// movement model.
func (c sweepCells) naive() []float64 {
	out := []float64{c.f7.RCP2, c.f7.RCP4, c.f7.LPFS2, c.f7.LPFS4}
	out = append(out, c.f8.RCP[:]...)
	return append(out, c.f8.LPFS[:]...)
}

// check compares the LPFS k=4 cells with the committed baseline.
func (c sweepCells) check(want server.MetricsBody) error {
	for _, v := range []struct {
		what      string
		got, want float64
	}{
		{"fig6 lpfs k=4", c.f6.LPFS4, want.SpeedupVsSeq},
		{"fig6 cp", c.f6.CP, want.CPSpeedup},
		{"fig7 lpfs k=4", c.f7.LPFS4, want.SpeedupVsNaive},
		{"fig8 lpfs no-local", c.f8.LPFS[0], want.SpeedupVsNaive},
	} {
		if v.got != v.want {
			return fmt.Errorf("%s = %v, baseline %v", v.what, v.got, v.want)
		}
	}
	return nil
}

// sweepOp is one op: build, then the three figure functions, each
// under a span of sc (a scope without a tracer records nothing).
func sweepOp(sc scope, b bench.Benchmark, workers int) (sweepCells, error) {
	var c sweepCells
	opts := b.Pipeline
	opts.FTh = sweepFTh
	_, end := sc.span("core.build")
	p, err := core.Build(b.Source, opts)
	end()
	if err != nil {
		return c, err
	}
	c.prog = p
	ws := []core.Workload{{Name: b.Name, Params: b.Params, Prog: p, Cache: core.NewEvalCache(), Workers: workers}}
	var f6 []core.Fig6Row
	var f7 []core.Fig7Row
	var f8 []core.Fig8Row
	for _, fig := range []struct {
		name string
		run  func() error
	}{
		{"core.fig6", func() (err error) { f6, err = core.Fig6(ws); return }},
		{"core.fig7", func() (err error) { f7, err = core.Fig7(ws); return }},
		{"core.fig8", func() (err error) { f8, err = core.Fig8(ws); return }},
	} {
		_, end := sc.span(fig.name)
		t0 := time.Now()
		err := fig.run()
		c.figWall += time.Since(t0)
		end()
		if err != nil {
			return c, err
		}
	}
	c.f6, c.f7, c.f8, c.cache = f6[0], f7[0], f8[0], ws[0].Cache.Stats()
	return c, nil
}

// replaySweep replays one op layer by layer: the front end, whose
// fingerprint must equal the op's program's, then every Evaluate call
// of core.Fig6, Fig7 and Fig8 in their order, each compared with the
// figure cell the op produced.
func replaySweep(sc scope, b bench.Benchmark, c sweepCells, rp *replayer) (*flatten.Stats, error) {
	p, st, err := frontend(sc, b.Source, sweepFTh)
	if err != nil {
		return nil, err
	}
	if fp, want := p.Fingerprint(), c.prog.Fingerprint(); fp != want {
		return nil, fmt.Errorf("replayed front end fingerprint %s, core.Build %s", fp, want)
	}
	rp.memo = newMemo() // like the op's fresh EvalCache
	cell := func(fig string, s core.Scheduler, k, local int, vsNaive bool, want float64) error {
		esc, end := sc.span("replay.evaluate")
		r, err := rp.evaluate(esc, p, s, k, 0, comm.Options{LocalCapacity: local})
		end()
		got := r.speedupVsSeq()
		if vsNaive {
			got = r.speedupVsNaive()
		}
		if err == nil && got != want {
			err = fmt.Errorf("replay gives %v, the figure %v", got, want)
		}
		if err != nil {
			return fmt.Errorf("%s %s k=%d local=%d: %w", fig, s.Name(), k, local, err)
		}
		return nil
	}
	// Figs. 6 and 7 evaluate the same four configurations in turn.
	figs67 := []struct {
		s          core.Scheduler
		k          int
		seq, naive float64
	}{
		{core.RCP, 2, c.f6.RCP2, c.f7.RCP2}, {core.RCP, 4, c.f6.RCP4, c.f7.RCP4},
		{core.LPFS, 2, c.f6.LPFS2, c.f7.LPFS2}, {core.LPFS, 4, c.f6.LPFS4, c.f7.LPFS4},
	}
	for _, v := range figs67 {
		if err := cell("fig6", v.s, v.k, 0, false, v.seq); err != nil {
			return nil, err
		}
	}
	for _, v := range figs67 {
		if err := cell("fig7", v.s, v.k, 0, true, v.naive); err != nil {
			return nil, err
		}
	}
	_, end := sc.span("resource")
	est, err := resource.New(p)
	var q int64
	if err == nil {
		q, err = est.MinQubits()
	}
	end()
	if err != nil {
		return nil, err
	}
	caps := [4]int{0, int(q / 4), int(q / 2), -1}
	for _, row := range []struct {
		s    core.Scheduler
		want [4]float64
	}{{core.RCP, c.f8.RCP}, {core.LPFS, c.f8.LPFS}} {
		for ci, local := range caps {
			if err := cell("fig8", row.s, 4, local, true, row.want[ci]); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// sweepOrder is the op sequence: each pass visits every gated benchmark
// once, in a seeded order.
func sweepOrder(seed int64, n, passes int) []int {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, 0, n*passes)
	for range passes {
		seq = append(seq, rng.Perm(n)...)
	}
	return seq
}

func paperSweep(c config) (*outcome, error) {
	gated := bench.Gated()
	want := make([]server.MetricsBody, len(gated))
	for i, b := range gated {
		var err error
		if want[i], err = loadBaseline(b.Name); err != nil {
			return nil, err
		}
	}
	workers := runtime.NumCPU()
	np := passes(c.seconds, sweepPassSeconds, len(gated))
	seq := sweepOrder(c.seed, len(gated), np)
	o := &outcome{opTimes: newOpTimes(len(seq)), segment: segmentOps(np, len(gated))}

	// Set-up is sweepWarmupPasses warm-up passes over every benchmark;
	// its median over sweepSetupReps repetitions is setup_s.
	for range sweepSetupReps {
		runtime.GC()
		t0 := time.Now()
		for range sweepWarmupPasses {
			for i, b := range gated {
				cells, err := sweepOp(scope{}, b, workers)
				if err == nil {
					err = cells.check(want[i])
				}
				if err != nil {
					o.breaks("warm-up %s: %v", b.Name, err)
				}
			}
		}
		o.setups = append(o.setups, time.Since(t0))
	}

	var cache core.CacheStats
	ph := startPhase()
	for i, bi := range seq {
		t0 := time.Now()
		cells, err := sweepOp(scope{}, gated[bi], workers)
		o.record(i, t0)
		if err == nil {
			err = cells.check(want[bi])
		}
		if err != nil {
			o.fail(i, "%s: %v", gated[bi].Name, err)
			continue
		}
		o.speedups = append(o.speedups, cells.naive()...)
		cache = addStats(cache, cells.cache)
	}
	ph.stop(o)
	if !c.trace {
		return o, nil
	}

	// Each op has its own cache: report the mean occupancy at op end.
	tr := newTraceReport(o, cache, float64(cache.MemBytes)/float64(len(seq))/(1<<20))
	rp := newReplayer()
	for i, bi := range seq {
		b := gated[bi]
		root := tr.t.begin("op", -1, i, 1)
		cells, err := sweepOp(scope{tr.t, root, i, 1}, b, workers)
		tr.t.end(root)
		if err == nil {
			err = cells.check(want[bi])
		}
		if err == nil {
			tr.evalWall += cells.figWall
			rr := tr.t.begin("replay", -1, i, 1)
			var st *flatten.Stats
			st, err = replaySweep(scope{tr.t, rr, i, 1}, b, cells, rp)
			tr.t.end(rr)
			if st != nil {
				tr.inlined += int64(st.InlinedCallOps)
			}
		}
		if err != nil {
			o.fail(i, "traced %s: %v", b.Name, err)
		}
	}
	// Every layer span of this workload is replayed work of some op.
	tr.explained = layerTime(tr.t.spans)
	tr.counts = rp.counts
	var err error
	if o.layers, err = tr.finish(c); err != nil {
		return nil, err
	}
	// The sweep runs no daemon and no result store: their layers are idle.
	for k, v := range storeCounts(len(seq), core.CacheStats{}, core.CacheStats{}, 0, nil) {
		o.layers[k] = v
	}
	o.layers["server.self_ms_per_op"] = metric{0, "ms"}
	o.layers["server.queue_wait_ms_per_op"] = metric{0, "ms"}
	o.layers["server.non2xx_per_op"] = metric{0, "count"}
	return o, nil
}

// addStats sums the traffic counters and occupancy of two snapshots.
func addStats(a, b core.CacheStats) core.CacheStats {
	a.CommHits += b.CommHits
	a.CommMisses += b.CommMisses
	a.SchedHits += b.SchedHits
	a.SchedMisses += b.SchedMisses
	a.DiskHits += b.DiskHits
	a.DiskMisses += b.DiskMisses
	a.DiskWrites += b.DiskWrites
	a.MemEvictions += b.MemEvictions
	a.MemBytes += b.MemBytes
	return a
}
