package verify_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/verify"
)

// twoQubitChain is H(0) CNOT(0,1) T(1): a 3-op dependent chain.
func twoQubitChain() (*ir.Module, *dag.Graph) {
	m := ir.NewModule("chain", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.H, 0)
	m.Gate(qasm.CNOT, 0, 1)
	m.Gate(qasm.T, 1)
	g, err := dag.Build(m)
	if err != nil {
		panic(err)
	}
	return m, g
}

// mustLists builds a schedule from nested per-step region lists.
func mustLists(t *testing.T, m *ir.Module, k, d int, steps [][][]int32) *schedule.Schedule {
	t.Helper()
	s, err := schedule.FromLists(m, k, d, steps)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// wantCheck asserts err is a *verify.Error flagging the given check.
func wantCheck(t *testing.T, err error, check string) *verify.Error {
	t.Helper()
	if err == nil {
		t.Fatalf("illegal schedule accepted, want %s violation", check)
	}
	var ve *verify.Error
	if !errors.As(err, &ve) {
		t.Fatalf("error is %T (%v), want *verify.Error", err, err)
	}
	if ve.Check != check {
		t.Fatalf("check = %s (%v), want %s", ve.Check, ve, check)
	}
	return ve
}

func TestLegalScheduleAccepted(t *testing.T) {
	m, g := twoQubitChain()
	s := schedule.Sequential(m, 2)
	if err := verify.Schedule(s, g); err != nil {
		t.Fatalf("sequential schedule rejected: %v", err)
	}
	res, err := comm.Analyze(s, comm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Full(s, g, res, comm.Options{}); err != nil {
		t.Fatalf("legal analysis rejected: %v", err)
	}
}

func TestOpScheduledTwice(t *testing.T) {
	m, g := twoQubitChain()
	s := mustLists(t, m, 1, 0, [][][]int32{
		{{0}},
		{{1}},
		{{1}}, // op 1 again, op 2 missing
	})
	ve := wantCheck(t, verify.Schedule(s, g), "op-once")
	if ve.Step != 2 || ve.Op != 1 {
		t.Errorf("diagnostic located at step %d op %d, want step 2 op 1", ve.Step, ve.Op)
	}
}

func TestOpMissing(t *testing.T) {
	m, g := twoQubitChain()
	s := mustLists(t, m, 1, 0, [][][]int32{
		{{0}},
		{{1}},
	})
	ve := wantCheck(t, verify.Schedule(s, g), "op-once")
	if ve.Op != 2 {
		t.Errorf("diagnostic names op %d, want 2", ve.Op)
	}
}

func TestDependencyOrderViolated(t *testing.T) {
	m, g := twoQubitChain()
	s := mustLists(t, m, 1, 0, [][][]int32{
		{{2}}, // T before its producer CNOT
		{{1}},
		{{0}},
	})
	wantCheck(t, verify.Schedule(s, g), "dependency-order")
}

func TestSIMDHomogeneityViolated(t *testing.T) {
	m := ir.NewModule("mix", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.H, 0)
	m.Gate(qasm.T, 1)
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	s := mustLists(t, m, 1, 0, [][][]int32{
		{{0, 1}}, // H and T share a region-step
	})
	ve := wantCheck(t, verify.Schedule(s, g), "simd-homogeneity")
	if ve.Step != 0 || ve.Region != 0 || ve.Op != 1 {
		t.Errorf("diagnostic at step %d region %d op %d, want 0/0/1", ve.Step, ve.Region, ve.Op)
	}
}

func TestDistinctAnglesAreDistinctTypes(t *testing.T) {
	m := ir.NewModule("rot", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Rot(qasm.Rz, 0.25, 0)
	m.Rot(qasm.Rz, 0.75, 1)
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	s := mustLists(t, m, 1, 0, [][][]int32{
		{{0, 1}},
	})
	wantCheck(t, verify.Schedule(s, g), "simd-homogeneity")
}

// TestKRegionBoundViolated: a schedule holds k regions per step by
// construction, so the k-region bound is enforced where nested lists
// become a schedule.
func TestKRegionBoundViolated(t *testing.T) {
	m := ir.NewModule("wide", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.H, 0)
	m.Gate(qasm.H, 1)
	s, err := schedule.FromLists(m, 1, 0, [][][]int32{
		{{0}, {1}}, // two regions on a k=1 machine
	})
	if err == nil || !strings.Contains(err.Error(), "2 regions, k = 1") {
		t.Fatalf("FromLists = %v, %v; want a k-region error", s, err)
	}
}

func TestDCapacityViolated(t *testing.T) {
	m := ir.NewModule("fat", nil, []ir.Reg{{Name: "q", Size: 4}})
	m.Gate(qasm.CNOT, 0, 1)
	m.Gate(qasm.CNOT, 2, 3)
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	s := mustLists(t, m, 1, 2, [][][]int32{
		{{0, 1}}, // 4 qubits in a d=2 region
	})
	ve := wantCheck(t, verify.Schedule(s, g), "d-capacity")
	if ve.Step != 0 || ve.Region != 0 {
		t.Errorf("diagnostic at step %d region %d, want 0/0", ve.Step, ve.Region)
	}
}

// TestSchedulerOutputOnNarrowerD replays a real scheduler's output on a
// narrower machine: RCP groups four H gates in one region-step, which
// d = 2 cannot hold.
func TestSchedulerOutputOnNarrowerD(t *testing.T) {
	m := ir.NewModule("wideH", nil, []ir.Reg{{Name: "q", Size: 4}})
	for i := 0; i < 4; i++ {
		m.Gate(qasm.H, i)
	}
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rcp.Schedule(m, g, rcp.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Schedule(s, g); err != nil {
		t.Fatalf("legal schedule rejected: %v", err)
	}
	s.D = 2
	wantCheck(t, verify.Schedule(s, g), "d-capacity")
}

func TestQubitInTwoRegionsAtOnce(t *testing.T) {
	// Two H gates on the same qubit: dependency-free by construction of a
	// doctored graph is impossible, so build two modules' worth of ops on
	// distinct qubits and forge the schedule to alias them. Simpler: two
	// ops on overlapping operand sets placed in the same step in
	// different regions — CNOT(0,1) and a forged H(1) placement.
	m := ir.NewModule("alias", nil, []ir.Reg{{Name: "q", Size: 3}})
	m.Gate(qasm.CNOT, 0, 1)
	m.Gate(qasm.H, 1)
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	s := mustLists(t, m, 2, 0, [][][]int32{
		{{0}, {1}}, // q[1] touched by both regions
	})
	// The same placement also violates dependency order (same step), but
	// the per-step qubit exclusivity check fires first.
	wantCheck(t, verify.Schedule(s, g), "qubit-exclusive")
}

func TestMoveSourceMismatch(t *testing.T) {
	m, g := twoQubitChain()
	s := schedule.Sequential(m, 1)
	res, err := comm.Analyze(s, comm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Full(s, g, res, comm.Options{}); err != nil {
		t.Fatalf("legal analysis rejected: %v", err)
	}
	// Corrupt the first boundary's first move to claim a wrong source.
	if len(res.Boundaries[0]) == 0 {
		t.Fatal("expected an initial load at boundary 0")
	}
	res.Boundaries[0][0].From = comm.Loc{Kind: comm.InLocal, Region: 0}
	err = verify.Moves(s, res, comm.Options{})
	ve := wantCheck(t, err, "move-source")
	if ve.Step != 0 {
		t.Errorf("diagnostic at step %d, want 0", ve.Step)
	}
}

func TestMissingResidencyMove(t *testing.T) {
	m, _ := twoQubitChain()
	s := schedule.Sequential(m, 1)
	res, err := comm.Analyze(s, comm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Drop the initial load of q[0]: op 0 then fires on a qubit the move
	// list says is still in global memory.
	if len(res.Boundaries[0]) != 1 {
		t.Fatalf("boundary 0 has %d moves, want 1", len(res.Boundaries[0]))
	}
	res.Boundaries[0] = nil
	res.GlobalMoves--
	res.EPRPairs--
	recountPeak(res)
	err = verify.Moves(s, res, comm.Options{})
	ve := wantCheck(t, err, "residency")
	if ve.Step != 0 || ve.Region != 0 || ve.Op != 0 {
		t.Errorf("diagnostic at step %d region %d op %d, want 0/0/0", ve.Step, ve.Region, ve.Op)
	}
}

// TestDroppedMovesRejected drops every move of a legal analysis: no
// operand ever leaves global memory.
func TestDroppedMovesRejected(t *testing.T) {
	m := ir.NewModule("twoH", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.H, 0).Gate(qasm.H, 1)
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rcp.Schedule(m, g, rcp.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := comm.Analyze(s, comm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Full(s, g, res, comm.Options{}); err != nil {
		t.Fatalf("legal analysis rejected: %v", err)
	}
	forged := *res
	forged.Boundaries = make([][]comm.Move, len(res.Boundaries))
	wantCheck(t, verify.Moves(s, &forged, comm.Options{}), "residency")
}

func TestCounterMismatch(t *testing.T) {
	m, _ := twoQubitChain()
	s := schedule.Sequential(m, 1)
	res, err := comm.Analyze(s, comm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.GlobalMoves++
	wantCheck(t, verify.Moves(s, res, comm.Options{}), "move-counters")
	res.GlobalMoves--
	res.Cycles++
	wantCheck(t, verify.Moves(s, res, comm.Options{}), "cycle-accounting")
}

func TestScratchpadCapacityViolationDetected(t *testing.T) {
	// A qubit that leaves and returns to an active region parks in the
	// scratchpad under capacity 1; claim capacity was 0 and the verifier
	// must object.
	m := ir.NewModule("park", nil, []ir.Reg{{Name: "q", Size: 3}})
	m.Gate(qasm.H, 0)
	m.Gate(qasm.T, 1)
	m.Gate(qasm.H, 0)
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	s := mustLists(t, m, 1, 0, [][][]int32{
		{{0}},
		{{1}},
		{{2}},
	})
	res, err := comm.Analyze(s, comm.Options{LocalCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Full(s, g, res, comm.Options{LocalCapacity: 1}); err != nil {
		t.Fatalf("legal parking rejected: %v", err)
	}
	if res.LocalMoves == 0 {
		t.Fatal("expected a scratchpad round trip")
	}
	wantCheck(t, verify.Moves(s, res, comm.Options{LocalCapacity: 0}), "local-capacity")
}

// TestScratchpadShrunkRejected parks two qubits at once under capacity
// 2: a smaller scratchpad and none at all must both object.
func TestScratchpadShrunkRejected(t *testing.T) {
	m := ir.NewModule("parkpair", nil, []ir.Reg{{Name: "q", Size: 3}})
	m.Gate(qasm.CNOT, 0, 1).Gate(qasm.T, 2).Gate(qasm.CNOT, 0, 1)
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.Sequential(m, 1)
	res, err := comm.Analyze(s, comm.Options{LocalCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Full(s, g, res, comm.Options{LocalCapacity: 2}); err != nil {
		t.Fatalf("legal parking rejected: %v", err)
	}
	for _, c := range []int{1, 0} {
		wantCheck(t, verify.Moves(s, res, comm.Options{LocalCapacity: c}), "local-capacity")
	}
}

// TestOverheadRecount replays each step's overhead from the moves. A
// CNOT on a one-region machine loads two qubits at boundary 0: masked,
// those first uses ride pre-distribution and cost nothing even on a
// one-pair EPR channel; strict accounting charges the teleport and a
// second wave. A forged stall or wave is rejected.
func TestOverheadRecount(t *testing.T) {
	m := ir.NewModule("pair", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.CNOT, 0, 1)
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.Sequential(m, 1)
	for _, tc := range []struct {
		opts comm.Options
		want int
	}{
		{comm.Options{EPRBandwidth: 1}, 0},
		{comm.Options{NoOverlap: true, EPRBandwidth: 1}, 2 * comm.TeleportCycles},
	} {
		res, err := comm.Analyze(s, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Overhead[0] != tc.want {
			t.Fatalf("%+v: boundary 0 charged %d cycles, want %d", tc.opts, res.Overhead[0], tc.want)
		}
		if err := verify.Full(s, g, res, tc.opts); err != nil {
			t.Fatalf("%+v: legal analysis rejected: %v", tc.opts, err)
		}
		for _, extra := range []int{3, comm.TeleportCycles} {
			forged := *res
			forged.Overhead = append([]int(nil), res.Overhead...)
			forged.Overhead[0] += extra
			forged.Cycles += int64(extra)
			ve := wantCheck(t, verify.Moves(s, &forged, tc.opts), "overhead")
			if ve.Step != 0 {
				t.Errorf("diagnostic at step %d, want 0", ve.Step)
			}
		}
	}
}

// recountPeak recomputes PeakEPRBandwidth after a test doctors the
// boundary lists.
func recountPeak(res *comm.Result) {
	res.PeakEPRBandwidth = 0
	for _, b := range res.Boundaries {
		g := 0
		for _, mv := range b {
			if mv.Kind == comm.GlobalMove {
				g++
			}
		}
		if g > res.PeakEPRBandwidth {
			res.PeakEPRBandwidth = g
		}
	}
}

// TestFullAcceptsSchedulerAnalyses replays scheduler and movement
// output through verify.Full across both schedulers, region counts and
// scratchpad capacities: every annotation of a legal analysis must be
// confirmed.
func TestFullAcceptsSchedulerAnalyses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		m := verify.RandomLeaf(rng, verify.GenOptions{Ops: 60, Qubits: 6})
		g, err := dag.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 4} {
			var s *schedule.Schedule
			if trial%2 == 0 {
				s, err = rcp.Schedule(m, g, rcp.Options{K: k})
			} else {
				s, err = lpfs.Schedule(m, g, lpfs.Options{K: k})
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []int{0, 1, -1} {
				opts := comm.Options{LocalCapacity: c}
				res, err := comm.Analyze(s, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := verify.Full(s, g, res, opts); err != nil {
					t.Fatalf("trial %d k=%d cap=%d: %v", trial, k, c, err)
				}
			}
		}
	}
}

func TestVerifierAgreesWithScheduleValidate(t *testing.T) {
	// Cross-oracle: on random schedules from both real schedulers, the
	// independent verifier and schedule.Validate must agree (both accept).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m := verify.RandomLeaf(rng, verify.GenOptions{Ops: 40, Qubits: 5})
		g, err := dag.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3} {
			sr, err := rcp.Schedule(m, g, rcp.Options{K: k})
			if err != nil {
				t.Fatal(err)
			}
			sl, err := lpfs.Schedule(m, g, lpfs.Options{K: k})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*schedule.Schedule{sr, sl} {
				if err := s.Validate(g); err != nil {
					t.Fatalf("trial %d k=%d: Validate rejects: %v", trial, k, err)
				}
				if err := verify.Schedule(s, g); err != nil {
					t.Fatalf("trial %d k=%d: verifier rejects: %v", trial, k, err)
				}
			}
		}
	}
}

func TestErrorRendering(t *testing.T) {
	m, g := twoQubitChain()
	s := mustLists(t, m, 1, 0, [][][]int32{
		{{0}},
		{{1}},
		{{1}},
	})
	err := verify.Schedule(s, g)
	if err == nil {
		t.Fatal("illegal schedule accepted")
	}
	msg := err.Error()
	for _, want := range []string{"chain", "op-once", "step 2", "op 1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q missing %q", msg, want)
		}
	}
}
