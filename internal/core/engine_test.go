package core_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
)

var (
	enginePrograms    map[string]*ir.Program
	engineProgOnce    sync.Once
	engineProgBuildEr error
)

// engineWorkloads compiles every small benchmark once for the engine
// tests (the same FTh bench_test.go uses).
func engineWorkloads(t *testing.T) map[string]*ir.Program {
	engineProgOnce.Do(func() {
		enginePrograms = map[string]*ir.Program{}
		for _, w := range bench.AllSmall() {
			opts := w.Pipeline
			opts.FTh = 2000
			p, err := core.Build(w.Source, opts)
			if err != nil {
				engineProgBuildEr = fmt.Errorf("%s: %w", w.Name, err)
				return
			}
			enginePrograms[w.Name] = p
		}
	})
	if engineProgBuildEr != nil {
		t.Fatal(engineProgBuildEr)
	}
	return enginePrograms
}

// TestEngineDeterminism is the issue's acceptance gate: Evaluate with
// Workers: 1 and Workers: 8 must produce identical Metrics for every
// benchmark generator and both schedulers.
func TestEngineDeterminism(t *testing.T) {
	progs := engineWorkloads(t)
	if len(progs) != 8 {
		t.Fatalf("expected 8 benchmark generators, got %d", len(progs))
	}
	for name, p := range progs {
		for _, sched := range []core.Scheduler{core.RCP, core.LPFS} {
			opts := core.EvalOptions{
				Scheduler: sched,
				K:         4,
				Comm:      comm.Options{LocalCapacity: -1},
				Verify:    true,
			}
			serialOpts := opts
			serialOpts.Workers = 1
			serial, err := core.Evaluate(p, serialOpts)
			if err != nil {
				t.Fatalf("%s/%s workers=1: %v", name, sched.Name(), err)
			}
			parOpts := opts
			parOpts.Workers = 8
			par, err := core.Evaluate(p, parOpts)
			if err != nil {
				t.Fatalf("%s/%s workers=8: %v", name, sched.Name(), err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("%s/%s: workers=1 metrics %+v != workers=8 metrics %+v",
					name, sched.Name(), serial, par)
			}
		}
	}
}

// TestEvalCacheTransparent asserts a warm cache returns identical
// Metrics to a cold, uncached run, and that the warm run actually hit.
func TestEvalCacheTransparent(t *testing.T) {
	progs := engineWorkloads(t)
	p := progs["Grovers"]
	if p == nil {
		for _, q := range progs {
			p = q
			break
		}
	}
	opts := core.EvalOptions{Scheduler: core.LPFS, K: 4}
	cold, err := core.Evaluate(p, opts)
	if err != nil {
		t.Fatal(err)
	}

	cache := core.NewEvalCache()
	opts.Cache = cache
	first, err := core.Evaluate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := core.Evaluate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, first) || !reflect.DeepEqual(cold, warm) {
		t.Errorf("cache not transparent:\ncold  %+v\nfirst %+v\nwarm  %+v", cold, first, warm)
	}
	st := cache.Stats()
	if st.CommHits == 0 {
		t.Errorf("warm run recorded no comm-layer hits: %+v", st)
	}
	if st.CommEntries == 0 || st.SchedEntries == 0 {
		t.Errorf("cache holds no entries after two runs: %+v", st)
	}
}

// TestEvalCacheScheduleReuse pins the fig8 fast path: when only comm
// options change, the zero-communication schedules are reused (schedule
// layer hits) and only the movement analysis re-runs.
func TestEvalCacheScheduleReuse(t *testing.T) {
	progs := engineWorkloads(t)
	var p *ir.Program
	for _, q := range progs {
		p = q
		break
	}
	cache := core.NewEvalCache()
	base := core.EvalOptions{Scheduler: core.LPFS, K: 4, Cache: cache}
	if _, err := core.Evaluate(p, base); err != nil {
		t.Fatal(err)
	}
	st0 := cache.Stats()

	withLocal := base
	withLocal.Comm = comm.Options{LocalCapacity: -1}
	got, err := core.Evaluate(p, withLocal)
	if err != nil {
		t.Fatal(err)
	}
	st1 := cache.Stats()
	if st1.SchedHits <= st0.SchedHits {
		t.Errorf("comm-only change did not reuse schedules: before %+v after %+v", st0, st1)
	}
	if st1.SchedEntries != st0.SchedEntries {
		t.Errorf("comm-only change grew the schedule layer: before %+v after %+v", st0, st1)
	}

	fresh := withLocal
	fresh.Cache = nil
	want, err := core.Evaluate(p, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("schedule-layer reuse changed results: got %+v want %+v", got, want)
	}
}

// TestRemovedEvalOptionFields pins the post-cleanup engine surface: the
// transitional comm-forwarding fields and per-algorithm option structs
// must stay deleted from EvalOptions. Comm options live on the embedded
// comm.Options; tuned schedulers come from lpfs.New / rcp.New or the
// registry.
func TestRemovedEvalOptionFields(t *testing.T) {
	removed := []string{"LocalCapacity", "NoOverlap", "EPRBandwidth", "LPFSOpts", "RCPOpts", "Profile"}
	typ := reflect.TypeOf(core.EvalOptions{})
	for _, name := range removed {
		if _, ok := typ.FieldByName(name); ok {
			t.Errorf("EvalOptions still carries removed field %s", name)
		}
	}
	if _, ok := typ.FieldByName("Comm"); !ok {
		t.Error("EvalOptions lost its Comm field")
	}
}

// TestEvaluateWithVerify audits every small benchmark with both
// schedulers: the audit must pass on real workloads and be transparent —
// identical Metrics with it off — and the warm run it audits must be
// served by the comm layer alone, exactly like an unverified one.
func TestEvaluateWithVerify(t *testing.T) {
	progs := engineWorkloads(t)
	for name, p := range progs {
		for _, sched := range []core.Scheduler{core.RCP, core.LPFS} {
			cache := core.NewEvalCache()
			opts := core.EvalOptions{
				Scheduler: sched,
				K:         4,
				Comm:      comm.Options{LocalCapacity: 4},
				Verify:    true,
				Cache:     cache,
			}
			cold, err := core.Evaluate(p, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, sched.Name(), err)
			}
			rec := &core.CacheRecorder{}
			opts.CacheStats = rec
			warm, err := core.Evaluate(p, opts)
			if err != nil {
				t.Fatalf("%s/%s warm: %v", name, sched.Name(), err)
			}
			if st := rec.Stats(); st.CommMisses != 0 || st.SchedHits+st.SchedMisses != 0 {
				t.Errorf("%s/%s warm: %d comm misses, %d schedule lookups; want comm hits alone",
					name, sched.Name(), st.CommMisses, st.SchedHits+st.SchedMisses)
			}
			plain := opts
			plain.Verify = false
			plain.Cache, plain.CacheStats = nil, nil
			want, err := core.Evaluate(p, plain)
			if err != nil {
				t.Fatalf("%s/%s unverified: %v", name, sched.Name(), err)
			}
			if !reflect.DeepEqual(cold, want) || !reflect.DeepEqual(warm, want) {
				t.Errorf("%s/%s: verification changed metrics:\ncold %+v\nwarm %+v\nwant %+v",
					name, sched.Name(), cold, warm, want)
			}
		}
	}
}

// TestSchedulerByName resolves registered algorithms and distinguishes
// them.
func TestSchedulerByName(t *testing.T) {
	r, err := core.SchedulerByName("rcp")
	if err != nil || r.Name() != "rcp" {
		t.Fatalf("rcp lookup: %v %v", r, err)
	}
	l, err := core.SchedulerByName("lpfs")
	if err != nil || l.Name() != "lpfs" {
		t.Fatalf("lpfs lookup: %v %v", l, err)
	}
	if r == l {
		t.Error("rcp and lpfs resolved to the same scheduler")
	}
	if r != core.RCP || l != core.LPFS {
		t.Error("registry defaults differ from package defaults")
	}
}
