package core_test

// Tests of BuildReport, the one source of schedule reports: it profiles
// every leaf at machine width, worker-pool order does not perturb it,
// and the assembled report agrees with the Metrics the evaluation
// returns. TestScheduleLeafMatchesEngine (leaf_test.go) ties its per-leaf
// numbers to the engine's cache entries.

import (
	"context"
	"reflect"
	"testing"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/report"
)

func TestEvaluateProfileCollectsLeaves(t *testing.T) {
	progs := engineWorkloads(t)
	p := progs["Grovers"]
	if p == nil {
		t.Fatal("no Grovers workload")
	}
	opts := core.EvalOptions{
		K:      4,
		Comm:   comm.Options{LocalCapacity: -1},
		Verify: true,
	}
	m, err := core.Evaluate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.BuildReport(context.Background(), p, "Grovers", m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Modules); got != m.Leaves {
		t.Fatalf("profiled %d modules, evaluation had %d leaves", got, m.Leaves)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Totals.CommCycles != m.CommCycles || r.Totals.ZeroCommSteps != m.ZeroCommSteps ||
		r.Totals.GlobalMoves != m.GlobalMoves || r.Totals.CriticalPath != m.CriticalPath {
		t.Errorf("report totals %+v disagree with Metrics %+v", r.Totals, m)
	}
	if r.Scheduler != "rcp" || r.K != 4 {
		t.Errorf("report config %s/k=%d, want rcp/k=4", r.Scheduler, r.K)
	}
	for _, mod := range r.Modules {
		if mod.Width != 4 {
			t.Errorf("module %s profiled at width %d, want machine width 4", mod.Name, mod.Width)
		}
	}
}

// TestProfileWorkerInvariance builds the report serially and on a wide
// pool; the two must be identical.
func TestProfileWorkerInvariance(t *testing.T) {
	progs := engineWorkloads(t)
	p := progs["SHA-1"]
	if p == nil {
		t.Fatal("no SHA-1 workload")
	}
	opts := core.EvalOptions{K: 4, Comm: comm.Options{LocalCapacity: 2}}
	m, err := core.Evaluate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var reports []*report.Report
	for _, workers := range []int{1, 8} {
		opts.Workers = workers
		r, err := core.BuildReport(context.Background(), p, "SHA-1", m, opts)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Error("report differs between Workers=1 and Workers=8")
	}
}
