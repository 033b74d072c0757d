package core_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/obs"
)

// TestAuditRejectsServedEntry plants a wrong characterization in the
// cache an evaluation is served from. The evaluation uses it as is — a
// comm hit is never re-checked on the hot path — and the audit must
// reject it, naming the module, the width and the field, counting
// verify.rejections and marking the trace. The same audit over an
// honest cache passes with the instrumentation attached and the pool
// running, and rejects nothing.
func TestAuditRejectsServedEntry(t *testing.T) {
	p := engineWorkloads(t)["Grovers"]
	if p == nil {
		t.Fatal("no Grovers workload")
	}
	o := &obs.Observer{Trace: obs.NewTracer(), Metrics: obs.NewRegistry()}
	honest := core.NewEvalCache()
	opts := core.EvalOptions{Scheduler: core.LPFS, K: 4, Verify: true, Cache: honest, Obs: o, Workers: 2}
	if _, err := core.Evaluate(p, opts); err != nil {
		t.Fatalf("honest cache: %v", err)
	}
	rejections := o.Metrics.Counter("verify.rejections")
	if n := rejections.Value(); n != 0 {
		t.Fatalf("honest cache: %d rejections", n)
	}

	const w = 2
	var names []string
	for name := range p.Modules {
		names = append(names, name)
	}
	sort.Strings(names)
	var leaf string
	var entry [4]int64
	for _, name := range names {
		if e, ok := core.CachedCommEntry(honest, p.Modules[name], core.LPFS, w, 0, opts.Comm); ok {
			leaf, entry = name, e
			break
		}
	}
	if leaf == "" {
		t.Fatal("no leaf characterized at width 2")
	}
	planted := core.NewEvalCache()
	bad := entry
	bad[2]++ // global moves
	core.PutCommEntry(planted, p.Modules[leaf], core.LPFS, w, 0, opts.Comm, bad)
	opts.Cache = planted
	_, err := core.Evaluate(p, opts)
	want := fmt.Sprintf("module %s: width %d: served globals %d, re-derived %d", leaf, w, bad[2], entry[2])
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("planted entry: error %v, want one containing %q", err, want)
	}
	if n := rejections.Value(); n < 1 {
		t.Errorf("planted entry: %d rejections counted", n)
	}
	var trace bytes.Buffer
	if _, err := o.Trace.WriteTo(&trace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(trace.Bytes(), []byte("rejection: "+leaf)) {
		t.Error("trace carries no rejection instant")
	}
}
