package rcp_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/verify"
)

func build(t *testing.T, m *ir.Module) *dag.Graph {
	t.Helper()
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmptyModule(t *testing.T) {
	m := ir.NewModule("empty", nil, nil)
	g := build(t, m)
	s, err := rcp.Schedule(m, g, rcp.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Length() != 0 {
		t.Errorf("length %d", s.Length())
	}
}

func TestRejectsBadK(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 1}})
	m.Gate(qasm.H, 0)
	g := build(t, m)
	if _, err := rcp.Schedule(m, g, rcp.Options{K: 0}); err == nil {
		t.Error("accepted k=0")
	}
}

func TestSIMDGrouping(t *testing.T) {
	// 8 independent H gates group into one region-step with k=1.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 8}})
	for i := 0; i < 8; i++ {
		m.Gate(qasm.H, i)
	}
	g := build(t, m)
	s, err := rcp.Schedule(m, g, rcp.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Length() != 1 {
		t.Errorf("8 parallel H took %d steps", s.Length())
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestMixedTypesNeedRegionsOrSteps(t *testing.T) {
	// 4 H and 4 X, all independent: k=2 fits both groups in one step,
	// k=1 needs two.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 8}})
	for i := 0; i < 4; i++ {
		m.Gate(qasm.H, i)
	}
	for i := 4; i < 8; i++ {
		m.Gate(qasm.X, i)
	}
	g := build(t, m)
	s2, err := rcp.Schedule(m, g, rcp.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Length() != 1 {
		t.Errorf("k=2: %d steps", s2.Length())
	}
	s1, err := rcp.Schedule(m, g, rcp.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Length() != 2 {
		t.Errorf("k=1: %d steps", s1.Length())
	}
}

func TestDistinctAnglesDoNotGroup(t *testing.T) {
	// Table 2: Rz with different angles cannot share a region-step.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 4}})
	for i := 0; i < 4; i++ {
		m.Rot(qasm.Rz, float64(i)+0.5, i)
	}
	g := build(t, m)
	s, err := rcp.Schedule(m, g, rcp.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Length() != 2 {
		t.Errorf("4 distinct rotations on k=2 took %d steps, want 2", s.Length())
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestDLimitRespected(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 10}})
	for i := 0; i < 10; i++ {
		m.Gate(qasm.H, i)
	}
	g := build(t, m)
	s, err := rcp.Schedule(m, g, rcp.Options{K: 1, D: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Length() != 4 { // ceil(10/3)
		t.Errorf("steps = %d, want 4", s.Length())
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestLocalityPreference(t *testing.T) {
	// Two serial chains on distinct qubits: with k=2 and w_dist at
	// work, each chain should stay in one region (minimizing movement).
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	for i := 0; i < 6; i++ {
		m.Gate(qasm.T, 0)
		m.Gate(qasm.H, 1)
	}
	g := build(t, m)
	s, err := rcp.Schedule(m, g, rcp.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Count region switches per qubit.
	reg := make([]int32, len(m.Ops))
	for step := range s.Steps {
		for r := 0; r < s.K; r++ {
			for _, op := range s.Region(step, r) {
				reg[op] = int32(r)
			}
		}
	}
	switches := 0
	perQubit := map[int][]int32{}
	for op := range m.Ops {
		for _, slot := range m.Ops[op].Args {
			perQubit[slot] = append(perQubit[slot], reg[op])
		}
	}
	for _, regs := range perQubit {
		for i := 1; i < len(regs); i++ {
			if regs[i] != regs[i-1] {
				switches++
			}
		}
	}
	if switches > 2 {
		t.Errorf("chains ping-pong between regions: %d switches", switches)
	}
}

// TestDTooSmallForGateErrors pins the infeasibility contract: a machine
// whose d cannot fit a gate's operands must yield an error, never an
// illegal schedule.
func TestDTooSmallForGateErrors(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.H, 0)
	m.Gate(qasm.CNOT, 0, 1)
	g := build(t, m)
	if _, err := rcp.Schedule(m, g, rcp.Options{K: 2, D: 1}); err == nil {
		t.Error("d=1 accepted a 2-qubit gate")
	}
	s, err := rcp.Schedule(m, g, rcp.Options{K: 2, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// Property: RCP schedules are always valid, never beat the critical
// path, and never exceed the op count.
func TestScheduleValidityQuick(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%4) + 1
		m := verify.RandomLeaf(rng, verify.GenOptions{Ops: 50, Qubits: 6})
		g, err := dag.Build(m)
		if err != nil {
			return false
		}
		s, err := rcp.Schedule(m, g, rcp.Options{K: k})
		if err != nil {
			return false
		}
		if s.Validate(g) != nil {
			return false
		}
		return s.Length() >= g.CriticalPath() && s.Length() <= len(m.Ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: more regions never hurt (monotone non-increasing length).
func TestMonotoneInKQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := verify.RandomLeaf(rng, verify.GenOptions{Ops: 40, Qubits: 5})
		g, err := dag.Build(m)
		if err != nil {
			return false
		}
		prev := -1
		for _, k := range []int{1, 2, 4} {
			s, err := rcp.Schedule(m, g, rcp.Options{K: k})
			if err != nil {
				return false
			}
			if prev >= 0 && s.Length() > prev+prev/4+2 {
				// Greedy schedulers are not strictly monotone, but a
				// large regression signals a bug.
				return false
			}
			prev = s.Length()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestScheduleAllocBudget pins a 2000-op random leaf's schedule at k=4
// to its measured allocation count. Ops and per-step offsets live in
// the schedule's flat int32 slabs, so the count does not grow with the
// schedule's ~480 steps; per-step allocation coming back fails here.
// The per-call working arrays come from pooled scratch and the group
// ids from the graph, so what is left is the Builder and the
// schedule's three slabs (the schedules are not released here).
// The band absorbs the race detector's random drops of pooled scratch.
func TestScheduleAllocBudget(t *testing.T) {
	const want = 4
	m := verify.RandomLeaf(rand.New(rand.NewSource(42)), verify.GenOptions{Ops: 2000, Qubits: 12})
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := rcp.Schedule(m, g, rcp.Options{K: 4}); err != nil {
			t.Fatal(err)
		}
	})
	if got < want-4 || got > want+12 {
		t.Errorf("rcp.Schedule allocates %.0f times, budget %d (-4/+12)", got, want)
	}
}
