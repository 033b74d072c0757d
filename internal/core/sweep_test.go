package core_test

import (
	"cmp"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/resource"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

// independent evaluates opts on p the way no sweep does: one Evaluate
// on a fresh cache, so neither a shared preparation nor an earlier
// variant's results can reach it.
func independent(t *testing.T, p *ir.Program, opts core.EvalOptions, workers int) *core.Metrics {
	t.Helper()
	opts.Cache, opts.Workers = core.NewEvalCache(), workers
	m, err := core.Evaluate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSweepMatchesIndependentEvaluate is the differential oracle of the
// shared sweep preparation and its capacity-dominance memo: every
// experiment driver's cells must equal independent Evaluate calls, at
// one worker and at four, with the drivers sharing one cache per
// workload as qbench's do.
func TestSweepMatchesIndependentEvaluate(t *testing.T) {
	progs := engineWorkloads(t)
	// Small enough to stay quick under -race. All three have binding
	// Fig. 8 capacities; in BF every capacity binds, in CN and GSE some
	// do not.
	names := []string{"BF", "CN", "GSE"}
	for _, workers := range []int{1, 4} {
		var ws []core.Workload
		for _, name := range names {
			ws = append(ws, core.Workload{Name: name, Prog: progs[name], Cache: core.NewEvalCache(), Workers: workers})
		}
		eval := func(name string, opts core.EvalOptions) *core.Metrics {
			return independent(t, progs[name], opts, workers)
		}

		f6, err := core.Fig6(ws)
		if err != nil {
			t.Fatal(err)
		}
		f7, err := core.Fig7(ws)
		if err != nil {
			t.Fatal(err)
		}
		f8, err := core.Fig8(ws)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range ws {
			var seq, naive [4]float64
			for j, s := range []core.Scheduler{core.RCP, core.RCP, core.LPFS, core.LPFS} {
				m := eval(w.Name, core.EvalOptions{Scheduler: s, K: 2 + 2*(j%2)})
				seq[j], naive[j] = m.SpeedupVsSeq(), m.SpeedupVsNaive()
			}
			cp := eval(w.Name, core.EvalOptions{Scheduler: core.LPFS, K: 4}).CPSpeedup()
			if r := f6[i]; [4]float64{r.RCP2, r.RCP4, r.LPFS2, r.LPFS4} != seq || r.CP != cp {
				t.Errorf("workers=%d fig6 %s: sweep %+v, independent %v cp %v", workers, w.Name, r, seq, cp)
			}
			if r := f7[i]; [4]float64{r.RCP2, r.RCP4, r.LPFS2, r.LPFS4} != naive {
				t.Errorf("workers=%d fig7 %s: sweep %+v, independent %v", workers, w.Name, r, naive)
			}
			est, err := resource.New(w.Prog)
			if err != nil {
				t.Fatal(err)
			}
			q, err := est.MinQubits()
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range []struct {
				s   core.Scheduler
				got [4]float64
			}{{core.RCP, f8[i].RCP}, {core.LPFS, f8[i].LPFS}} {
				for ci, c := range [4]int{0, int(q / 4), int(q / 2), -1} {
					want := eval(w.Name, core.EvalOptions{Scheduler: row.s, K: 4, Comm: comm.Options{LocalCapacity: c}}).SpeedupVsNaive()
					if row.got[ci] != want {
						t.Errorf("workers=%d fig8 %s %s cap=%d: sweep %v, independent %v",
							workers, w.Name, row.s.Name(), c, row.got[ci], want)
					}
				}
			}
		}

		drivers := []struct {
			name string
			run  func() ([]core.Cell, error)
		}{
			{"fig9", func() ([]core.Cell, error) { return core.Fig9(ws[0]) }},
			{"sensd", func() ([]core.Cell, error) { return core.SensD(ws, core.LPFS, 4, []int{2, 4, 0}) }},
			{"sensepr", func() ([]core.Cell, error) { return core.SensEPR(ws, core.LPFS, 4, []int{1, 2, 0}) }},
			{"ablation lpfs", func() ([]core.Cell, error) { return core.AblationLPFS(ws, 4) }},
			{"ablation rcp", func() ([]core.Cell, error) { return core.AblationRCP(ws, 4) }},
			{"ablation comm", func() ([]core.Cell, error) { return core.AblationComm(ws, core.LPFS, 4) }},
		}
		for _, d := range drivers {
			cells, err := d.run()
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				if want := eval(c.Name, c.Opts); !reflect.DeepEqual(c.Metrics, *want) {
					t.Errorf("workers=%d %s %s %s: sweep %+v, independent %+v",
						workers, d.name, c.Name, c.Variant, c.Metrics, *want)
				}
			}
		}
	}
}

// TestSweepEngineCounters pins the engine's work counters over one
// gated benchmark's Fig6 -> Fig7 -> Fig8 on one cache, with one worker
// and with four: a sweep's variants share one pool, and the counters
// are those of the variants run one after another. Shor's has 22
// reachable leaves with 16 distinct bodies. Each sweep prepares its
// program once, so every distinct leaf body is materialized once by
// Fig6 and never again (Fig7 and Fig8 find every movement profile and
// critical path in the cache). Leaves sharing a body share its pool
// tasks. Fig6 schedules and prices each (scheduler, body, width) point
// once; Fig7 repeats Fig6's points and prices nothing; Fig8's
// capacities share one profile per point, each priced once.
func TestSweepEngineCounters(t *testing.T) {
	p := engineWorkloads(t)["Shors"]
	est, err := resource.New(p)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[ir.Fingerprint]bool{}
	for _, name := range est.Reachable() {
		if mod := p.Modules[name]; mod.IsLeaf() {
			bodies[mod.Fingerprint()] = true
		}
	}
	if len(bodies) != 16 {
		t.Fatalf("Shor's has %d distinct leaf bodies, want 16", len(bodies))
	}
	// Per-figure deltas of materializations, comm pricings, fresh
	// schedules and pool tasks. Each figure's points are 2 schedulers x 4
	// widths per distinct leaf; Fig8 prices 3 capacities per point
	// (cap=0 repeats Fig7) from the profiles Fig6 cached, scheduling
	// nothing. Tasks are one per distinct body and evaluated width: Figs.
	// 6 and 7 evaluate k=2 (2 widths) and k=4 (4 widths) per scheduler,
	// Fig8 k=4 at 4 capacities.
	n := int64(len(bodies))
	points := 8 * n
	want := [3][4]int64{
		{n, points, points, 2 * 6 * n},
		{0, 0, 0, 2 * 6 * n},
		{0, 3 * points, 0, 2 * 4 * 4 * n},
	}
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		ws := []core.Workload{{Name: "Shors", Prog: p, Cache: core.NewEvalCache(), Workers: workers, Obs: &obs.Observer{Metrics: reg}}}
		var prev [4]int64
		for fi, run := range []func() error{
			func() error { _, err := core.Fig6(ws); return err },
			func() error { _, err := core.Fig7(ws); return err },
			func() error { _, err := core.Fig8(ws); return err },
		} {
			if err := run(); err != nil {
				t.Fatal(err)
			}
			var got [4]int64
			for i, name := range []string{"leaf.materialized", "comm.fresh", "sched.fresh", "engine.tasks"} {
				v := reg.Counter(name).Value()
				got[i], prev[i] = v-prev[i], v
			}
			if got != want[fi] {
				t.Errorf("workers=%d fig%d: (leaf.materialized, comm.fresh, sched.fresh, engine.tasks) = %v, want %v",
					workers, 6+fi, got, want[fi])
			}
		}
	}
}

// failingScheduler is RCP, except that on machines with a per-region
// data parallelism in failD it fails every leaf of more than 40 ops at
// two regions and more.
type failingScheduler struct{ failD []int }

func (failingScheduler) Name() string { return "failing" }

func (f failingScheduler) Schedule(m *ir.Module, g *dag.Graph, k, d int) (*schedule.Schedule, error) {
	if slices.Contains(f.failD, d) && k >= 2 && len(m.Ops) > 40 {
		return nil, fmt.Errorf("no schedule of %d ops at k=%d d=%d", len(m.Ops), k, d)
	}
	return core.RCP.Schedule(m, g, k, d)
}

// sweepFirstError is the error of the sweep in TestSweepFirstError as
// it was when each variant of a sweep ran its own pool, one variant
// after another: the first failing variant's lowest failing (body,
// width) point.
const sweepFirstError = "sensd Shors d=3: core: module shor_cphase0: no schedule of 938 ops at k=2 d=3"

// TestSweepFirstError runs a sweep in which two variants fail on many
// points, claimed largest body first, and at one worker and at four
// gets the error the variants run one after another return.
func TestSweepFirstError(t *testing.T) {
	p := engineWorkloads(t)["Shors"]
	for _, workers := range []int{1, 4} {
		ws := []core.Workload{{Name: "Shors", Prog: p, Cache: core.NewEvalCache(), Workers: workers}}
		_, err := core.SensD(ws, failingScheduler{failD: []int{2, 3}}, 4, []int{0, 3, 4, 2})
		if err == nil || err.Error() != sweepFirstError {
			t.Errorf("workers=%d: error %v, want %s", workers, err, sweepFirstError)
		}
	}
}

// TestSweepSpanTracksNest runs a traced Fig. 8 at two workers over the
// small benchmarks and checks that, on every track, any two spans are
// nested or disjoint: a span a trace viewer cannot nest under its
// track's open span belongs on another track. Variants compose
// concurrently, so each compose's per-module and coarse spans must go
// on its worker's track.
func TestSweepSpanTracksNest(t *testing.T) {
	progs := engineWorkloads(t)
	tr := obs.NewTracer()
	var ws []core.Workload
	for _, name := range slices.Sorted(maps.Keys(progs)) {
		ws = append(ws, core.Workload{Name: name, Prog: progs[name], Cache: core.NewEvalCache(), Workers: 2, Obs: &obs.Observer{Trace: tr}})
	}
	if _, err := core.Fig8(ws); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans", tr.Dropped())
	}
	byTID := map[int64][]obs.SpanEvent{}
	for _, ev := range tr.Events() {
		byTID[ev.TID] = append(byTID[ev.TID], ev)
	}
	for tid, evs := range byTID {
		// Outer spans first: by start, then longest first.
		slices.SortFunc(evs, func(a, b obs.SpanEvent) int {
			if a.TSUS != b.TSUS {
				return cmp.Compare(a.TSUS, b.TSUS)
			}
			return cmp.Compare(b.DurUS, a.DurUS)
		})
		var open []obs.SpanEvent
		bad := 0
		for _, ev := range evs {
			for len(open) > 0 && open[len(open)-1].TSUS+open[len(open)-1].DurUS <= ev.TSUS {
				open = open[:len(open)-1]
			}
			if n := len(open); n > 0 && ev.TSUS+ev.DurUS > open[n-1].TSUS+open[n-1].DurUS {
				if bad++; bad <= 3 {
					t.Errorf("tid %d: %s/%s [%d,+%d] partially overlaps %s/%s [%d,+%d]", tid,
						ev.Cat, ev.Name, ev.TSUS, ev.DurUS, open[n-1].Cat, open[n-1].Name, open[n-1].TSUS, open[n-1].DurUS)
				}
				continue
			}
			open = append(open, ev)
		}
		if bad > 3 {
			t.Errorf("tid %d: %d partial overlaps in all", tid, bad)
		}
	}
}
