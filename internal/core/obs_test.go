package core_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/resource"
)

// TestOpsPerStepMatchesObserve: the engine gathers each fresh
// schedule's per-step op counts into a local batch before folding it
// into sched.ops_per_step. After cold evaluations on two workers the
// histogram must read exactly as observing every step of a
// re-derivation of each schedule the run computed, one Observe per
// step, would: every reachable leaf scheduled through core.ScheduleLeaf
// at every evaluated width, once per distinct (digest, width), since
// the shared cache schedules each of those once.
func TestOpsPerStepMatchesObserve(t *testing.T) {
	progs := engineWorkloads(t)
	reg := obs.NewRegistry()
	cache := core.NewEvalCache()
	want := obs.NewRegistry()
	h := want.Histogram("sched.ops_per_step")
	type point struct {
		fp ir.Fingerprint
		w  int
	}
	scheduled := map[point]bool{}
	for _, name := range []string{"Grovers", "SHA-1"} {
		p := progs[name]
		if p == nil {
			t.Fatalf("no %s workload", name)
		}
		ks := []int{2, 4}
		for _, k := range ks {
			opts := core.EvalOptions{Scheduler: core.LPFS, K: k, Cache: cache, Obs: &obs.Observer{Metrics: reg}, Workers: 2}
			if _, err := core.Evaluate(p, opts); err != nil {
				t.Fatal(err)
			}
		}
		est, err := resource.New(p)
		if err != nil {
			t.Fatal(err)
		}
		digests := p.Digests().Modules
		for _, leaf := range est.Reachable() {
			mod := p.Modules[leaf]
			if !mod.IsLeaf() {
				continue
			}
			for w := 1; w <= ks[len(ks)-1]; w++ {
				pt := point{digests[leaf], w}
				if scheduled[pt] {
					continue
				}
				scheduled[pt] = true
				l, err := core.ScheduleLeaf(mod, core.LPFS, w, 0, comm.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range l.S.Steps {
					h.Observe(int64(st.Ops()))
				}
			}
		}
	}
	fresh := reg.Counter("sched.fresh").Value()
	if int64(len(scheduled)) != fresh {
		t.Fatalf("%d distinct (leaf, width) points, %d fresh schedules", len(scheduled), fresh)
	}
	if n := cache.Stats().SchedEntries; int64(n) != fresh {
		t.Fatalf("the schedule layer holds %d entries, %d schedules were fresh", n, fresh)
	}
	got := reg.Snapshot().Histograms["sched.ops_per_step"]
	if ref := want.Snapshot().Histograms["sched.ops_per_step"]; !reflect.DeepEqual(got, ref) {
		t.Errorf("sched.ops_per_step reads %+v, per-step Observe %+v", got, ref)
	}
	if got.Count == 0 || got.Count != reg.Counter("sched.steps").Value() {
		t.Errorf("histogram count %d, sched.steps %d", got.Count, reg.Counter("sched.steps").Value())
	}
}

// TestEvaluateObservability is the acceptance check that the metrics
// snapshot agrees with the Metrics Evaluate returns, and that the trace
// a run emits is well-formed Chrome trace-event JSON.
func TestEvaluateObservability(t *testing.T) {
	progs := engineWorkloads(t)
	p := progs["Grovers"]
	if p == nil {
		t.Fatal("no Grovers workload")
	}
	o := &obs.Observer{
		Trace:     obs.NewTracer(),
		Metrics:   obs.NewRegistry(),
		Decisions: obs.NewDecisionLog(obs.LevelOp),
	}
	cache := core.NewEvalCache()
	opts := core.EvalOptions{
		Scheduler: core.LPFS,
		K:         4,
		Cache:     cache,
		Obs:       o,
	}
	m, err := core.Evaluate(p, opts)
	if err != nil {
		t.Fatal(err)
	}

	r := o.Metrics
	for _, g := range []struct {
		name string
		want int64
	}{
		{"eval.total_gates", m.TotalGates},
		{"eval.min_qubits", m.MinQubits},
		{"eval.modules", int64(m.Modules)},
		{"eval.leaves", int64(m.Leaves)},
		{"eval.critical_path", m.CriticalPath},
		{"eval.zero_comm_steps", m.ZeroCommSteps},
		{"eval.comm_cycles", m.CommCycles},
		{"eval.global_moves", m.GlobalMoves},
		{"eval.local_moves", m.LocalMoves},
	} {
		if got := r.Gauge(g.name).Value(); got != g.want {
			t.Errorf("gauge %s = %d, want %d (reported Metrics)", g.name, got, g.want)
		}
	}
	st := cache.Stats()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"eval_cache.comm.hits", st.CommHits},
		{"eval_cache.comm.misses", st.CommMisses},
		{"eval_cache.sched.hits", st.SchedHits},
		{"eval_cache.sched.misses", st.SchedMisses},
		{"eval_cache.cp.hits", st.CPHits},
		{"eval_cache.cp.misses", st.CPMisses},
	} {
		if got := r.Counter(c.name).Value(); got != c.want {
			t.Errorf("counter %s = %d, want %d (cache.Stats())", c.name, got, c.want)
		}
	}
	if r.Counter("sched.fresh").Value() == 0 {
		t.Error("cold run characterized no fresh schedules")
	}

	if o.Decisions.Len() == 0 {
		t.Error("LevelOp decision log recorded nothing")
	}

	var buf bytes.Buffer
	if _, err := o.Trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("malformed trace: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.PID != 1 {
			t.Fatalf("event %q has pid %d, want 1", ev.Name, ev.PID)
		}
		seen[ev.Name] = true
	}
	for _, want := range []string{"evaluate", "characterize-leaves", "compose"} {
		if !seen[want] {
			t.Errorf("trace lacks the %q engine span", want)
		}
	}
}

// TestEngineObservabilityRace runs the fully instrumented engine with a
// wide worker pool, twice per scheduler so warm cache paths count too.
// Its value is under -race in CI: every tracer, registry and decision
// write races against seven siblings unless properly synchronized.
func TestEngineObservabilityRace(t *testing.T) {
	progs := engineWorkloads(t)
	p := progs["SHA-1"]
	if p == nil {
		t.Fatal("no SHA-1 workload")
	}
	for _, sched := range []core.Scheduler{core.RCP, core.LPFS} {
		o := &obs.Observer{
			Trace:     obs.NewTracer(),
			Metrics:   obs.NewRegistry(),
			Decisions: obs.NewDecisionLog(obs.LevelOp),
		}
		opts := core.EvalOptions{
			Scheduler: sched,
			K:         4,
			Comm:      comm.Options{LocalCapacity: -1},
			Workers:   8,
			Cache:     core.NewEvalCache(),
			Obs:       o,
		}
		for run := 0; run < 2; run++ {
			if _, err := core.Evaluate(p, opts); err != nil {
				t.Fatalf("%s run %d: %v", sched.Name(), run, err)
			}
		}
		if o.Trace.Len() == 0 {
			t.Errorf("%s: no spans recorded", sched.Name())
		}
	}
}

// TestEngineDecisionLogAcrossWorkers logs SHA-1 and Grovers under RCP
// at LevelOp through Obs.Decisions alone. Each task schedules into its
// own buffer and the engine appends them in task order, so at 1, 2 and
// 8 workers, each on a fresh cache, the log renders byte for byte the
// same; a warm rerun, every point served from the cache, appends
// nothing.
func TestEngineDecisionLogAcrossWorkers(t *testing.T) {
	progs := engineWorkloads(t)
	for _, name := range []string{"SHA-1", "Grovers"} {
		p := progs[name]
		if p == nil {
			t.Fatalf("no %s workload", name)
		}
		var want []byte
		for _, workers := range []int{1, 2, 8} {
			o := &obs.Observer{Decisions: obs.NewDecisionLog(obs.LevelOp)}
			opts := core.EvalOptions{
				Scheduler: core.RCP,
				K:         4,
				Comm:      comm.Options{LocalCapacity: -1},
				Workers:   workers,
				Cache:     core.NewEvalCache(),
				Obs:       o,
			}
			if _, err := core.Evaluate(p, opts); err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			var buf bytes.Buffer
			if _, err := o.Decisions.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			switch {
			case buf.Len() == 0:
				t.Fatalf("%s, %d workers: empty decision log", name, workers)
			case want == nil:
				want = buf.Bytes()
			case !bytes.Equal(buf.Bytes(), want):
				t.Errorf("%s: decision log at %d workers differs from 1 worker's (%d vs %d bytes)",
					name, workers, buf.Len(), len(want))
			}
			n := o.Decisions.Len()
			if _, err := core.Evaluate(p, opts); err != nil {
				t.Fatalf("%s, %d workers, warm: %v", name, workers, err)
			}
			if got := o.Decisions.Len(); got != n {
				t.Errorf("%s, %d workers: warm rerun appended %d decisions", name, workers, got-n)
			}
		}
	}
}

// BenchmarkEvaluateObsOff and ...ObsOn bound the enabled and disabled
// instrumentation cost; the overhead guard compares their wall times.
func BenchmarkEvaluateObsOff(b *testing.B) {
	benchmarkEvaluate(b, nil)
}

func BenchmarkEvaluateObsOn(b *testing.B) {
	benchmarkEvaluate(b, &obs.Observer{
		Trace:   obs.NewTracer(),
		Metrics: obs.NewRegistry(),
	})
}

func benchmarkEvaluate(b *testing.B, o *obs.Observer) {
	bm, ok := bench.ByName("BF")
	if !ok {
		b.Fatal("no BF benchmark")
	}
	opts := bm.Pipeline
	opts.FTh = 2000
	p, err := core.Build(bm.Source, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(p, core.EvalOptions{Scheduler: core.LPFS, K: 4, Obs: o}); err != nil {
			b.Fatal(err)
		}
	}
}
