package lpfs_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/qasm"
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
	s, err := lpfs.Schedule(m, g, lpfs.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Length() != 0 {
		t.Errorf("length %d", s.Length())
	}
}

func TestPinnedPathStaysInRegionZero(t *testing.T) {
	// One long chain plus independent side gates: the chain must run
	// entirely in region 0 (the pinned longest-path region).
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 4}})
	for i := 0; i < 10; i++ {
		m.Gate(qasm.T, 0)
	}
	m.Gate(qasm.H, 1).Gate(qasm.H, 2).Gate(qasm.H, 3)
	g := build(t, m)
	s, err := lpfs.Schedule(m, g, lpfs.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	for step := range s.Steps {
		for _, op := range s.Region(step, 1) {
			if op < 10 {
				t.Errorf("chain op %d in region 1", op)
			}
		}
	}
	if s.Length() != 10 {
		t.Errorf("length %d, want 10 (chain with free ops absorbed)", s.Length())
	}
}

func TestRefillPicksNextPath(t *testing.T) {
	// Two disjoint chains of different lengths; with refill the shorter
	// region picks up the second chain after the first completes... and
	// with l=1, k=1, both run in region 0 back to back.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	for i := 0; i < 6; i++ {
		m.Gate(qasm.T, 0)
	}
	for i := 0; i < 3; i++ {
		m.Gate(qasm.H, 1)
	}
	g := build(t, m)
	s, err := lpfs.Schedule(m, g, lpfs.Options{K: 1, SIMD: false, Refill: true, NoOptions: false})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	if s.Length() != 9 {
		t.Errorf("k=1 two chains: %d steps, want 9", s.Length())
	}
}

func TestSIMDOptionFillsPathRegion(t *testing.T) {
	// Chain of T on q0 plus many independent T gates: with SIMD on,
	// free T gates ride along in the path region.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 5}})
	for i := 0; i < 4; i++ {
		m.Gate(qasm.T, 0)
	}
	for q := 1; q < 5; q++ {
		m.Gate(qasm.T, q)
	}
	g := build(t, m)
	s, err := lpfs.Schedule(m, g, lpfs.Options{K: 1, SIMD: true, Refill: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	if s.Length() != 4 {
		t.Errorf("SIMD fill: %d steps, want 4", s.Length())
	}
	// Without SIMD at k=1: path first (4 steps), then... the free ops
	// can never run in the path region, but the deadlock-avoidance
	// fallback must still complete the schedule.
	s2, err := lpfs.Schedule(m, g, lpfs.Options{K: 1, NoOptions: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Validate(g); err != nil {
		t.Fatal(err)
	}
	if s2.Length() < 5 {
		t.Errorf("no-SIMD should be longer, got %d", s2.Length())
	}
}

func TestDistinctAngleRotationsSerialize(t *testing.T) {
	// Table 2 at the LPFS level: k=1 forces full serialization of
	// distinct-angle rotations; k=n runs them in one step.
	const n = 6
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: n}})
	for i := 0; i < n; i++ {
		m.Rot(qasm.Rz, 0.1*float64(i+1), i)
	}
	g := build(t, m)
	s1, err := lpfs.Schedule(m, g, lpfs.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Length() != n {
		t.Errorf("k=1: %d steps, want %d", s1.Length(), n)
	}
	sn, err := lpfs.Schedule(m, g, lpfs.Options{K: n})
	if err != nil {
		t.Fatal(err)
	}
	if sn.Length() != 1 {
		t.Errorf("k=%d: %d steps, want 1", n, sn.Length())
	}
}

func TestMultiplePinnedPaths(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 3}})
	for i := 0; i < 5; i++ {
		m.Gate(qasm.T, 0)
		m.Gate(qasm.H, 1)
		m.Gate(qasm.X, 2)
	}
	g := build(t, m)
	s, err := lpfs.Schedule(m, g, lpfs.Options{K: 3, L: 2, SIMD: true, Refill: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	if s.Length() != 5 {
		t.Errorf("3 disjoint chains on k=3 l=2: %d steps, want 5", s.Length())
	}
}

// TestDTooSmallForGateErrors pins the fix for a verifier-found bug: the
// pinned-path and deadlock-avoidance placements used to skip the d
// budget, so a 2-qubit gate landed in a d=1 region and produced an
// illegal schedule. Infeasible d must error instead.
func TestDTooSmallForGateErrors(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.H, 0)
	m.Gate(qasm.CNOT, 0, 1)
	g := build(t, m)
	for _, opts := range []lpfs.Options{
		{K: 2, D: 1},
		{K: 1, D: 1, NoOptions: true}, // forced-placement path
		{K: 2, D: 1, SIMD: true, Refill: true},
	} {
		s, err := lpfs.Schedule(m, g, opts)
		if err == nil {
			t.Errorf("opts %+v: accepted a 2-qubit gate with d=1: %d steps", opts, s.Length())
		}
	}
	// A d that fits still schedules and validates.
	s, err := lpfs.Schedule(m, g, lpfs.Options{K: 2, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// Property: LPFS schedules are always valid and bounded by cp and op
// count, across option combinations.
func TestScheduleValidityQuick(t *testing.T) {
	f := func(seed int64, kRaw, optRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%4) + 1
		opts := lpfs.Options{K: k}
		switch optRaw % 4 {
		case 0:
			opts.SIMD, opts.Refill = true, true
		case 1:
			opts.SIMD, opts.NoOptions = true, true
		case 2:
			opts.Refill, opts.NoOptions = true, true
		default:
			opts.NoOptions = true
		}
		if k > 1 && optRaw%8 >= 4 {
			opts.L = 2
		}
		m := verify.RandomLeaf(rng, verify.GenOptions{Ops: 50, Qubits: 6})
		g, err := dag.Build(m)
		if err != nil {
			return false
		}
		s, err := lpfs.Schedule(m, g, opts)
		if err != nil {
			return false
		}
		if s.Validate(g) != nil {
			return false
		}
		return s.Length() >= g.CriticalPath() && s.Length() <= len(m.Ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestScheduleAllocBudget pins a 2000-op random leaf's schedule at k=4
// to its measured allocation count. Ops and per-step offsets live in
// the schedule's flat int32 slabs, so the count does not grow with the
// schedule's ~480 steps; per-step allocation coming back fails here.
// The per-call working arrays come from pooled scratch and the group
// ids from the graph, so what is left is the Builder and the
// schedule's three slabs (the schedules are not released here) plus
// LPFS's step closures and extracted paths.
// The band absorbs the race detector's random drops of pooled scratch.
func TestScheduleAllocBudget(t *testing.T) {
	const want = 17
	m := verify.RandomLeaf(rand.New(rand.NewSource(42)), verify.GenOptions{Ops: 2000, Qubits: 12})
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := lpfs.Schedule(m, g, lpfs.Options{K: 4}); err != nil {
			t.Fatal(err)
		}
	})
	if got < want-4 || got > want+12 {
		t.Errorf("lpfs.Schedule allocates %.0f times, budget %d (-4/+12)", got, want)
	}
}
