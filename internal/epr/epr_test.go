package epr_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/epr"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

func analyzed(t *testing.T, m *ir.Module, steps [][][]int32, k int) (*schedule.Schedule, *comm.Result) {
	t.Helper()
	s, err := schedule.FromLists(m, k, 0, steps)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	res, err := comm.Analyze(s, comm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

func TestConfigValidation(t *testing.T) {
	if err := (epr.Config{Bandwidth: 0}).Validate(); err == nil {
		t.Error("bandwidth 0 accepted")
	}
	if err := (epr.Config{Bandwidth: 1, Latency: -1}).Validate(); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestPlanCoversEveryTeleport(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 3}})
	m.Gate(qasm.CNOT, 0, 1)
	m.Gate(qasm.H, 2)
	m.Gate(qasm.CNOT, 0, 2)
	steps := [][][]int32{
		{{0}, nil},
		{nil, {1}},
		{nil, {2}},
	}
	s, res := analyzed(t, m, steps, 2)
	plan, err := epr.Build(s, res, epr.Config{Bandwidth: 2, Latency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if int64(plan.Pairs) != res.GlobalMoves {
		t.Errorf("planned %d pairs for %d teleports", plan.Pairs, res.GlobalMoves)
	}
	for _, is := range plan.Issues {
		if is.IssueAt+1 > is.NeededAt {
			t.Errorf("pair for boundary %d issued too late (%d + latency 1)", is.NeededAt, is.IssueAt)
		}
	}
}

func TestBandwidthForcesPreIssue(t *testing.T) {
	// 4 teleports all needed at boundary 0 with bandwidth 1: three must
	// be issued before cycle 0 (pre-distribution).
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 4}})
	for i := 0; i < 4; i++ {
		m.Gate(qasm.H, i)
	}
	steps := [][][]int32{{{0, 1, 2, 3}}}
	s, res := analyzed(t, m, steps, 1)
	plan, err := epr.Build(s, res, epr.Config{Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Pairs != 4 {
		t.Fatalf("pairs: %d", plan.Pairs)
	}
	if plan.PreIssued != 3 {
		t.Errorf("pre-issued %d, want 3", plan.PreIssued)
	}
	// With bandwidth 4 everything issues at the deadline, nothing early.
	wide, err := epr.Build(s, res, epr.Config{Bandwidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if wide.PreIssued != 0 {
		t.Errorf("wide channel still pre-issued %d", wide.PreIssued)
	}
	if wide.MaxBuffered != 4 {
		t.Errorf("buffered %d, want 4 (all arrive at their boundary)", wide.MaxBuffered)
	}
}

func TestLatencyShiftsIssues(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 1}})
	m.Gate(qasm.H, 0)
	steps := [][][]int32{{{0}}}
	s, res := analyzed(t, m, steps, 1)
	plan, err := epr.Build(s, res, epr.Config{Bandwidth: 1, Latency: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Issues) != 1 || plan.Issues[0].IssueAt != -5 {
		t.Errorf("issues: %+v", plan.Issues)
	}
	if plan.PreIssued != 1 {
		t.Errorf("pre-issued %d", plan.PreIssued)
	}
}

func TestEmptySchedule(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 1}})
	s, err := schedule.FromLists(m, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := epr.Build(s, &comm.Result{}, epr.Config{Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Pairs != 0 || len(plan.Issues) != 0 {
		t.Errorf("plan: %+v", plan)
	}
}

// Property: for random scheduled circuits, the plan covers every
// teleport, meets every deadline, and never exceeds bandwidth at any
// cycle.
func TestPlanInvariantsQuick(t *testing.T) {
	f := func(seed int64, bwRaw, latRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bw := int(bwRaw%3) + 1
		lat := int(latRaw % 4)
		m := ir.NewModule("rand", nil, []ir.Reg{{Name: "q", Size: 5}})
		for i := 0; i < 40; i++ {
			if rng.Intn(2) == 0 {
				m.Gate(qasm.H, rng.Intn(5))
			} else {
				a := rng.Intn(5)
				b := (a + 1 + rng.Intn(4)) % 5
				m.Gate(qasm.CNOT, a, b)
			}
		}
		g, err := dag.Build(m)
		if err != nil {
			return false
		}
		s, err := lpfs.Schedule(m, g, lpfs.Options{K: 2})
		if err != nil {
			return false
		}
		res, err := comm.Analyze(s, comm.Options{})
		if err != nil {
			return false
		}
		plan, err := epr.Build(s, res, epr.Config{Bandwidth: bw, Latency: lat})
		if err != nil {
			return false
		}
		if int64(plan.Pairs) != res.GlobalMoves {
			return false
		}
		perCycle := map[int]int{}
		for _, is := range plan.Issues {
			if is.IssueAt+lat > is.NeededAt {
				return false // deadline missed
			}
			perCycle[is.IssueAt]++
			if perCycle[is.IssueAt] > bw {
				return false // bandwidth violated
			}
		}
		return plan.MaxBuffered >= 1 || plan.Pairs == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
