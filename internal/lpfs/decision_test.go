package lpfs_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/qasm"
)

func TestDecisionLogRecordsRefill(t *testing.T) {
	// Two disjoint 3-op chains at k=1 with Refill: the pinned region
	// exhausts the first chain, then refills with the second.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	for i := 0; i < 3; i++ {
		m.Gate(qasm.T, 0)
	}
	for i := 0; i < 3; i++ {
		m.Gate(qasm.S, 1)
	}
	g := build(t, m)

	plain, err := lpfs.Schedule(m, g, lpfs.Options{K: 1, Refill: true})
	if err != nil {
		t.Fatal(err)
	}
	log := obs.NewDecisionLog(obs.LevelOp)
	logged, err := lpfs.Schedule(m, g, lpfs.Options{K: 1, Refill: true, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, logged) {
		t.Fatal("decision logging changed the schedule")
	}
	if got := countReason(log, obs.ReasonRefill); got == 0 {
		t.Error("no refill recorded for two disjoint chains at k=1")
	}
	for _, d := range log.Entries() {
		if d.Scheduler != "lpfs" || d.Module != "m" {
			t.Fatalf("bad decision identity: %+v", d)
		}
	}
}

func TestDecisionLogRecordsDBudget(t *testing.T) {
	// 10 parallel H at k=1, d=3 with SIMD fill: the pinned head takes one
	// qubit and the free fill stops at the budget, deferring the rest.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 10}})
	for i := 0; i < 10; i++ {
		m.Gate(qasm.H, i)
	}
	g := build(t, m)
	log := obs.NewDecisionLog(obs.LevelOp)
	if _, err := lpfs.Schedule(m, g, lpfs.Options{K: 1, D: 3, Log: log}); err != nil {
		t.Fatal(err)
	}
	if got := countReason(log, obs.ReasonDBudget); got == 0 {
		t.Error("no d-budget deferrals recorded at d=3 with 10 ready ops")
	}
}

func TestDecisionLogOffRecordsNothing(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 4}})
	for i := 0; i < 4; i++ {
		m.Gate(qasm.H, i)
	}
	g := build(t, m)
	log := obs.NewDecisionLog(obs.LevelOff)
	if _, err := lpfs.Schedule(m, g, lpfs.Options{K: 2, Log: log}); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 0 {
		t.Errorf("LevelOff log has %d entries", log.Len())
	}
}

func TestAdapterConfigIgnoresLog(t *testing.T) {
	base := lpfs.New(lpfs.Options{L: 2, SIMD: true})
	logged := base.WithDecisionLog(obs.NewDecisionLog(obs.LevelStep))
	cfg, ok := logged.(interface{ Config() string })
	if !ok {
		t.Fatal("WithDecisionLog result lost the Config method")
	}
	if base.Config() != cfg.Config() {
		t.Errorf("cache key differs with logging: %q vs %q", base.Config(), cfg.Config())
	}
}

// TestConfigBytes pins Config to the fmt rendering of the options with
// the decision log dropped, over zero options, L: 2, NoOptions, the
// explicit paper flags and a set log; the zero options' string is
// rendered once, so Config allocates nothing for them.
func TestConfigBytes(t *testing.T) {
	log := obs.NewDecisionLog(obs.LevelOp)
	for _, o := range []lpfs.Options{
		{},
		{L: 2},
		{NoOptions: true},
		{SIMD: true},
		{Refill: true},
		{L: 2, SIMD: true, Refill: true},
		{K: 4, D: 2},
		{Log: log},
		{NoOptions: true, Log: log},
	} {
		want := o
		want.Log = nil
		if got := lpfs.New(o).Config(); got != fmt.Sprintf("lpfs%+v", want) {
			t.Errorf("Config of %+v = %q, want %q", want, got, fmt.Sprintf("lpfs%+v", want))
		}
	}
	zero := lpfs.Scheduler{}
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
