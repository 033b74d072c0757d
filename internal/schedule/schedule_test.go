package schedule_test

import (
	"reflect"
	"slices"
	"testing"

	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

func mod(t *testing.T) (*ir.Module, *dag.Graph) {
	t.Helper()
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 4}})
	m.Gate(qasm.H, 0).Gate(qasm.H, 1).Gate(qasm.CNOT, 0, 1).Gate(qasm.X, 2).Gate(qasm.X, 3)
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, g
}

func TestSequentialSchedule(t *testing.T) {
	m, g := mod(t)
	s := schedule.Sequential(m, 1)
	if s.Length() != 5 || s.Width() != 1 || s.TotalOps() != 5 {
		t.Fatalf("len=%d width=%d ops=%d", s.Length(), s.Width(), s.TotalOps())
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestValidSIMDSchedule(t *testing.T) {
	m, g := mod(t)
	s := &schedule.Schedule{M: m, K: 2, Steps: []schedule.Step{
		{Regions: [][]int32{{0, 1}, {3, 4}}}, // H group, X group
		{Regions: [][]int32{{2}}},            // CNOT
	}}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	if s.Width() != 2 {
		t.Errorf("width %d", s.Width())
	}
	at := s.StepOf()
	if at[2] != 1 {
		t.Errorf("CNOT at step %d", at[2])
	}
	reg := s.RegionOf()
	if reg[3] != 1 || reg[0] != 0 {
		t.Errorf("regions: %v", reg)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	m, g := mod(t)
	cases := map[string]*schedule.Schedule{
		"mixed types in region": {M: m, K: 2, Steps: []schedule.Step{
			{Regions: [][]int32{{0, 3}}},
			{Regions: [][]int32{{1, 4}}},
			{Regions: [][]int32{{2}}},
		}},
		"dependency violated": {M: m, K: 2, Steps: []schedule.Step{
			{Regions: [][]int32{{0}, {2}}},
			{Regions: [][]int32{{1}, {3}}},
			{Regions: [][]int32{{4}}},
		}},
		"op missing": {M: m, K: 2, Steps: []schedule.Step{
			{Regions: [][]int32{{0, 1}}},
			{Regions: [][]int32{{2}, {3}}},
		}},
		"op twice": {M: m, K: 2, Steps: []schedule.Step{
			{Regions: [][]int32{{0, 1}}},
			{Regions: [][]int32{{2}, {3}}},
			{Regions: [][]int32{{3, 4}}},
		}},
		"too many regions": {M: m, K: 1, Steps: []schedule.Step{
			{Regions: [][]int32{{0}, {1}}},
			{Regions: [][]int32{{2}}},
			{Regions: [][]int32{{3, 4}}},
		}},
	}
	for name, s := range cases {
		if err := s.Validate(g); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDLimit(t *testing.T) {
	m, g := mod(t)
	s := &schedule.Schedule{M: m, K: 1, D: 1, Steps: []schedule.Step{
		{Regions: [][]int32{{0, 1}}},
		{Regions: [][]int32{{2}}},
		{Regions: [][]int32{{3, 4}}},
	}}
	if err := s.Validate(g); err == nil {
		t.Error("d limit not enforced")
	}
	s.D = 2
	// CNOT uses 2 qubits, fits d=2.
	if err := s.Validate(g); err != nil {
		t.Errorf("d=2 should fit: %v", err)
	}
}

func TestGroupKeyAngles(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Rot(qasm.Rz, 0.5, 0).Rot(qasm.Rz, 0.7, 1)
	k0 := schedule.KeyOf(m, 0)
	k1 := schedule.KeyOf(m, 1)
	if k0 == k1 {
		t.Error("distinct-angle rotations share a group key (Table 2 violated)")
	}
	m2 := ir.NewModule("m2", nil, []ir.Reg{{Name: "q", Size: 2}})
	m2.Gate(qasm.H, 0).Gate(qasm.H, 1)
	if schedule.KeyOf(m2, 0) != schedule.KeyOf(m2, 1) {
		t.Error("same-type gates have different keys")
	}
}

// TestBuilderWindowsDoNotAlias is the aliasing guard for the Builder's
// shared slabs: appending to any region's op list, or to any step's
// region headers, of a built schedule leaves every other list unchanged.
// A region closed with no ops stays nil.
func TestBuilderWindowsDoNotAlias(t *testing.T) {
	m, g := mod(t)
	build := func() *schedule.Schedule {
		b := schedule.NewBuilder(m, 2, 0)
		b.Add(0)
		b.Add(1)
		b.Close(1) // the H group, placed in region 1 first
		b.Add(3)
		b.Add(4)
		b.Close(0) // the X group
		b.EndStep()
		b.Add(2)
		b.Close(0) // the CNOT
		if ops := b.Close(1); len(ops) != 0 {
			t.Fatalf("empty close returned %v", ops)
		}
		if b.Len() != 1 || len(b.Placed()) != 1 {
			t.Fatalf("open step %d holds %v", b.Len(), b.Placed())
		}
		b.EndStep()
		return b.Schedule()
	}
	lists := func(s *schedule.Schedule) [][][]int32 {
		var out [][][]int32
		for _, st := range s.Steps {
			out = append(out, st.Regions)
		}
		return out
	}
	built := build()
	if err := built.Validate(g); err != nil {
		t.Fatal(err)
	}
	want := [][][]int32{{{3, 4}, {0, 1}}, {{2}, nil}}
	if got := lists(built); !reflect.DeepEqual(got, want) {
		t.Fatalf("built %v, want %v", got, want)
	}
	for st := range want {
		for r := range want[st] {
			s := build()
			s.Steps[st].Regions[r] = append(s.Steps[st].Regions[r], 99)
			exp := build()
			exp.Steps[st].Regions[r] = append(slices.Clone(want[st][r]), 99)
			if got := lists(s); !reflect.DeepEqual(got, lists(exp)) {
				t.Errorf("append to step %d region %d: got %v", st, r, got)
			}
		}
		s := build()
		s.Steps[st].Regions = append(s.Steps[st].Regions, []int32{99})
		got := lists(s)
		got[st] = got[st][:2]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("append to step %d's regions: got %v", st, got)
		}
	}
}
