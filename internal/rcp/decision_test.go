package rcp_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

func TestDecisionLogRecordsChosenAndDBudget(t *testing.T) {
	// 10 parallel H at k=1, d=3: 4 steps, each a Chosen pick, and the
	// over-budget ops of each step get d-budget deferrals.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 10}})
	for i := 0; i < 10; i++ {
		m.Gate(qasm.H, i)
	}
	g := build(t, m)

	plain, err := rcp.Schedule(m, g, rcp.Options{K: 1, D: 3})
	if err != nil {
		t.Fatal(err)
	}
	log := obs.NewDecisionLog(obs.LevelOp)
	logged, err := rcp.Schedule(m, g, rcp.Options{K: 1, D: 3, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, logged) {
		t.Fatal("decision logging changed the schedule")
	}
	if got := countReason(log, obs.ReasonChosen); got != 4 {
		t.Errorf("Chosen count = %d, want 4 (one per step)", got)
	}
	if got := countReason(log, obs.ReasonDBudget); got == 0 {
		t.Error("no d-budget deferrals recorded at d=3 with 10 ready ops")
	}
	for _, d := range log.Entries() {
		if d.Scheduler != "rcp" || d.Module != "m" {
			t.Fatalf("bad decision identity: %+v", d)
		}
	}
}

func TestDecisionLogStepLevelSkipsOpDetail(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 10}})
	for i := 0; i < 10; i++ {
		m.Gate(qasm.H, i)
	}
	g := build(t, m)
	log := obs.NewDecisionLog(obs.LevelStep)
	if _, err := rcp.Schedule(m, g, rcp.Options{K: 1, D: 3, Log: log}); err != nil {
		t.Fatal(err)
	}
	if got := countReason(log, obs.ReasonDBudget); got != 0 {
		t.Errorf("LevelStep recorded %d op-level deferrals", got)
	}
	if got := countReason(log, obs.ReasonChosen); got != 4 {
		t.Errorf("Chosen count = %d, want 4", got)
	}
}

func TestAdapterConfigIgnoresLog(t *testing.T) {
	base := rcp.New(rcp.Options{WOp: 2, ExplicitWeights: true})
	logged := base.WithDecisionLog(obs.NewDecisionLog(obs.LevelOp))
	cfg, ok := logged.(interface{ Config() string })
	if !ok {
		t.Fatal("WithDecisionLog result lost the Config method")
	}
	if base.Config() != cfg.Config() {
		t.Errorf("cache key differs with logging: %q vs %q", base.Config(), cfg.Config())
	}
}

func TestAdapterWithDecisionLogRecords(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 4}})
	for i := 0; i < 4; i++ {
		m.Gate(qasm.H, i)
	}
	g := build(t, m)
	log := obs.NewDecisionLog(obs.LevelStep)
	s := rcp.New(rcp.Options{}).WithDecisionLog(log)
	if _, err := s.(schedule.Scheduler).Schedule(m, g, 2, 0); err != nil {
		t.Fatal(err)
	}
	if log.Len() == 0 {
		t.Error("adapter-injected log recorded nothing")
	}
}

// TestConfigBytes pins Config to the fmt rendering of the options with
// the decision log dropped, over zero options, tuned weights with and
// without ExplicitWeights, and a set log; the zero options' string is
// rendered once, so Config allocates nothing for them.
func TestConfigBytes(t *testing.T) {
	log := obs.NewDecisionLog(obs.LevelOp)
	for _, o := range []rcp.Options{
		{},
		{WOp: 1, WDist: 1, WSlack: 1},
		{WOp: 1, WDist: 0, WSlack: 1, ExplicitWeights: true},
		{WOp: 1, WDist: 0, WSlack: 0, ExplicitWeights: true},
		{WOp: 2, WDist: -1, WSlack: 0.5},
		{ExplicitWeights: true},
		{K: 4, D: 2},
		{Log: log},
		{WOp: 1, WDist: 0, WSlack: 1, ExplicitWeights: true, Log: log},
	} {
		want := o
		want.Log = nil
		if got := rcp.New(o).Config(); got != fmt.Sprintf("rcp%+v", want) {
			t.Errorf("Config of %+v = %q, want %q", want, got, fmt.Sprintf("rcp%+v", want))
		}
	}
	zero := rcp.Scheduler{}
	if a := testing.AllocsPerRun(100, func() { _ = zero.Config() }); a != 0 {
		t.Errorf("Config of the zero options allocates %.0f times, want 0", a)
	}
}

// countReason tallies log's records with reason r.
func countReason(log *obs.DecisionLog, r obs.Reason) int {
	n := 0
	for _, d := range log.Entries() {
		if d.Reason == r {
			n++
		}
	}
	return n
}
