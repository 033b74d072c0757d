package main

// The traced run attributes an operation's time to layers by calling
// each layer's public function from here, in the order the program
// calls them, with a span around every call. Nothing inside the
// program is instrumented.

import (
	"fmt"

	"github.com/scaffold-go/multisimd/internal/coarse"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/decompose"
	"github.com/scaffold-go/multisimd/internal/flatten"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lower"
	"github.com/scaffold-go/multisimd/internal/parser"
	"github.com/scaffold-go/multisimd/internal/resource"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/sema"
)

// scope places new spans: under parent, tagged with op and lane. A scope
// with a nil tracer records nothing.
type scope struct {
	t                *tracer
	parent, op, lane int
}

// span opens a child span and returns the scope nested under it plus
// the function that closes it.
func (s scope) span(name string) (scope, func()) {
	if s.t == nil {
		return s, func() {}
	}
	id := s.t.begin(name, s.parent, s.op, s.lane)
	return scope{s.t, id, s.op, s.lane}, func() { s.t.end(id) }
}

// frontend performs core.Build(src, {Entry: "main", FTh: fth}) as its
// five separate layer calls.
func frontend(sc scope, src string, fth int64) (*ir.Program, *flatten.Stats, error) {
	_, end := sc.span("parser")
	prog, err := parser.Parse(src)
	end()
	if err != nil {
		return nil, nil, err
	}
	_, end = sc.span("sema")
	err = sema.Check(prog)
	end()
	if err != nil {
		return nil, nil, err
	}
	_, end = sc.span("lower")
	p, err := lower.Lower(prog, "main", lower.Options{})
	end()
	if err != nil {
		return nil, nil, err
	}
	_, end = sc.span("decompose")
	_, err = decompose.Program(p, decompose.Options{})
	end()
	if err != nil {
		return nil, nil, err
	}
	_, end = sc.span("flatten")
	st, err := flatten.Program(p, flatten.Options{Threshold: fth})
	end()
	if err != nil {
		return nil, nil, err
	}
	return p, st, nil
}

// Keys of the replay's memo; they mirror the engine's cache layers
// (content fingerprint, scheduler, width, d, comm options).
type schedKey struct {
	fp    ir.Fingerprint
	sched string
	w, d  int
}

type commKey struct {
	schedKey
	comm comm.Options
}

type commEntry struct{ zeroLen, cycles int64 }

// memo stands in for the program's EvalCache, so the replay skips
// exactly the work a cache hit skips.
type memo struct {
	cp    map[ir.Fingerprint]int64
	comm  map[commKey]commEntry
	sched map[schedKey]*schedule.Schedule
}

func newMemo() *memo {
	return &memo{
		cp:    map[ir.Fingerprint]int64{},
		comm:  map[commKey]commEntry{},
		sched: map[schedKey]*schedule.Schedule{},
	}
}

// replayCounts accumulates the work counts the replay observes.
type replayCounts struct {
	materializedOps int64 // ops in materialized leaves
	steps           int64 // schedule steps produced
	coarseCalls     int64 // coarse.Schedule invocations
	globalMoves     int64 // teleports counted by comm.Analyze
	schedCalls      int64 // Scheduler.Schedule invocations
	commCalls       int64 // comm.Analyze invocations
}

// replayer re-enacts core.Evaluate serially, one span per layer call.
type replayer struct {
	memo   *memo
	an     *comm.Analyzer
	counts replayCounts
}

func newReplayer() *replayer { return &replayer{memo: newMemo(), an: comm.NewAnalyzer()} }

// evalResult is the slice of core.Metrics the replay recomputes, to be
// compared with the program's own answer.
type evalResult struct {
	totalGates, minQubits   int64
	zeroCommSteps, commCycs int64
}

// matches reports whether the program's metrics agree with the replay.
func (r evalResult) matches(m *core.Metrics) error {
	got := evalResult{m.TotalGates, m.MinQubits, m.ZeroCommSteps, m.CommCycles}
	if got != r {
		return fmt.Errorf("program computed %+v, replay %+v", got, r)
	}
	return nil
}

// speedupVsSeq and speedupVsNaive are the figures' y-axes, computed as
// core.Metrics computes them.
func (r evalResult) speedupVsSeq() float64 {
	if r.zeroCommSteps == 0 {
		return 0
	}
	return float64(r.totalGates) / float64(r.zeroCommSteps)
}

func (r evalResult) speedupVsNaive() float64 {
	if r.commCycs == 0 {
		return 0
	}
	return float64(comm.NaiveCycles(r.totalGates)) / float64(r.commCycs)
}

// materializeLimit is the engine's default leaf materialization bound.
const materializeLimit = 4 << 20

// widthSet mirrors the engine's per-module width set.
func widthSet(k int) []int {
	var ws []int
	for w := 1; w <= k && w <= 8; w++ {
		ws = append(ws, w)
	}
	for w := 16; w < k; w *= 2 {
		ws = append(ws, w)
	}
	if k > 8 {
		ws = append(ws, k)
	}
	return ws
}

// evaluate replays core.Evaluate(p, {Scheduler: s, K: k, D: d, Comm: co})
// against the memo: resource estimation, then per leaf its fingerprint,
// materialization and DAG (only when some width misses), a schedule
// per missing width and a comm analysis per missing (width, comm)
// point, then two coarse schedules per non-leaf and width.
func (r *replayer) evaluate(sc scope, p *ir.Program, s schedule.Scheduler, k, d int, co comm.Options) (evalResult, error) {
	var res evalResult
	_, end := sc.span("resource")
	est, err := resource.New(p)
	if err == nil {
		res.totalGates, err = est.TotalGates()
	}
	if err == nil {
		res.minQubits, err = est.MinQubits()
	}
	end()
	if err != nil {
		return res, err
	}
	widths := widthSet(k)
	order := est.Reachable()
	dims := map[string][2]coarse.Dims{} // zero-comm, with-comm
	for _, name := range order {
		mod := p.Modules[name]
		if !mod.IsLeaf() {
			continue
		}
		_, end := sc.span("ir.fingerprint")
		fp := mod.Fingerprint()
		end()
		var mat *ir.Module
		var g *dag.Graph
		graph := func() error {
			if g != nil {
				return nil
			}
			_, end := sc.span("ir.materialize")
			m, err := mod.Materialize(materializeLimit)
			end()
			if err != nil {
				return err
			}
			_, end = sc.span("dag.build")
			gg, err := dag.Build(m)
			end()
			if err != nil {
				return err
			}
			mat, g = m, gg
			r.counts.materializedOps += int64(len(m.Ops))
			return nil
		}
		if _, ok := r.memo.cp[fp]; !ok {
			if err := graph(); err != nil {
				return res, err
			}
			r.memo.cp[fp] = int64(g.CriticalPath())
		}
		var dz, dc coarse.Dims
		for _, w := range widths {
			sk := schedKey{fp: fp, sched: s.Name(), w: w, d: d}
			ck := commKey{schedKey: sk, comm: co}
			ce, ok := r.memo.comm[ck]
			if !ok {
				sched, ok := r.memo.sched[sk]
				if !ok {
					if err := graph(); err != nil {
						return res, err
					}
					_, end := sc.span(s.Name() + ".schedule")
					sched, err = s.Schedule(mat, g, w, d)
					end()
					if err != nil {
						return res, err
					}
					r.counts.schedCalls++
					r.counts.steps += int64(len(sched.Steps))
					r.memo.sched[sk] = sched
				}
				_, end := sc.span("comm.analyze")
				cr, err := r.an.Analyze(sched, co)
				end()
				if err != nil {
					return res, err
				}
				r.counts.commCalls++
				r.counts.globalMoves += cr.GlobalMoves
				ce = commEntry{zeroLen: int64(sched.Length()), cycles: cr.Cycles}
				r.memo.comm[ck] = ce
			}
			dz.Widths, dz.Lengths = append(dz.Widths, w), append(dz.Lengths, ce.zeroLen)
			dc.Widths, dc.Lengths = append(dc.Widths, w), append(dc.Lengths, ce.cycles)
		}
		dims[name] = [2]coarse.Dims{dz, dc}
	}
	for _, name := range order {
		mod := p.Modules[name]
		if mod.IsLeaf() {
			continue
		}
		var dz, dc coarse.Dims
		for _, w := range widths {
			for layer, cost := range [2]coarse.CostModel{coarse.ZeroComm, coarse.WithComm} {
				_, end := sc.span("coarse.schedule")
				cr, err := coarse.Schedule(mod, coarse.Options{K: w, Cost: cost, Dims: func(callee string) (coarse.Dims, error) {
					cd, ok := dims[callee]
					if !ok {
						return coarse.Dims{}, fmt.Errorf("replay: callee %s not yet evaluated", callee)
					}
					return cd[layer], nil
				}})
				end()
				if err != nil {
					return res, err
				}
				r.counts.coarseCalls++
				if layer == 0 {
					dz.Widths, dz.Lengths = append(dz.Widths, w), append(dz.Lengths, cr.Length)
				} else {
					dc.Widths, dc.Lengths = append(dc.Widths, w), append(dc.Lengths, cr.Length)
				}
			}
		}
		dims[name] = [2]coarse.Dims{dz, dc}
	}
	entry, ok := dims[p.Entry]
	if !ok {
		return res, fmt.Errorf("replay: entry %q not evaluated", p.Entry)
	}
	_, res.zeroCommSteps, ok = entry[0].Best(k)
	if !ok {
		return res, fmt.Errorf("replay: entry has no schedule within k=%d", k)
	}
	_, res.commCycs, _ = entry[1].Best(k)
	return res, nil
}
