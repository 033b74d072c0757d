package comm_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/verify"
)

func sched(t *testing.T, m *ir.Module, steps [][][]int32, k int) *schedule.Schedule {
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
		t.Fatalf("test schedule invalid: %v", err)
	}
	return s
}

func TestSerialChainStaysPut(t *testing.T) {
	// A serial chain in one region: only the first use teleports in,
	// masked by pre-distribution, so zero overhead.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 1}})
	for i := 0; i < 5; i++ {
		m.Gate(qasm.T, 0)
	}
	var steps [][][]int32
	for i := 0; i < 5; i++ {
		steps = append(steps, [][]int32{{int32(i)}})
	}
	s := sched(t, m, steps, 1)
	res, err := comm.Analyze(s, comm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalMoves != 1 {
		t.Errorf("global moves = %d, want 1 (initial load)", res.GlobalMoves)
	}
	if res.Cycles != 5 {
		t.Errorf("cycles = %d, want 5", res.Cycles)
	}
}

func TestPingPongStalls(t *testing.T) {
	// A qubit alternating between two regions every step pays the full
	// teleport each boundary after the first.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.CNOT, 0, 1)
	m.Gate(qasm.H, 0)
	m.Gate(qasm.CNOT, 0, 1)
	steps := [][][]int32{
		{{0}, nil},
		{nil, {1}},
		{{2}, nil},
	}
	s := sched(t, m, steps, 2)
	res, err := comm.Analyze(s, comm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// q0 moves r0->r1 with zero window (used at consecutive steps):
	// stall 4 at boundary 1; then r1->r0: stall 4 at boundary 2.
	if res.Overhead[1] != 4 || res.Overhead[2] != 4 {
		t.Errorf("overheads: %v", res.Overhead)
	}
	if res.Cycles != 3+8 {
		t.Errorf("cycles = %d", res.Cycles)
	}
}

func TestMaskingHidesDistantReuse(t *testing.T) {
	// A qubit reused in another region 6 steps later: the teleport
	// hides in the window.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.H, 0)
	for i := 0; i < 6; i++ {
		m.Gate(qasm.T, 1)
	}
	m.Gate(qasm.X, 0) // reused far later
	steps := [][][]int32{
		{{0}, nil},
	}
	for i := 0; i < 6; i++ {
		steps = append(steps, [][]int32{nil, {int32(i + 1)}})
	}
	steps = append(steps, [][]int32{nil, {7}})
	s := sched(t, m, steps, 2)
	res, err := comm.Analyze(s, comm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, o := range res.Overhead {
		total += o
	}
	if total != 0 {
		t.Errorf("overhead %v should be fully masked", res.Overhead)
	}
}

func TestNoOverlapCharges(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.H, 0)
	m.Gate(qasm.H, 1)
	steps := [][][]int32{
		{{0}},
		{{1}},
	}
	s := sched(t, m, steps, 1)
	res, err := comm.Analyze(s, comm.Options{NoOverlap: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both steps have an initial global in-move: 4 each.
	if res.Cycles != 2+8 {
		t.Errorf("cycles = %d, overhead %v", res.Cycles, res.Overhead)
	}
}

func TestLocalMemoryConvertsEvictions(t *testing.T) {
	// Qubit used in region 0, evicted while region 0 works on others,
	// then reused in region 0: without local memory it round-trips
	// through global (cost 8 in the window), with local memory 2.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.H, 0) // step 0, region 0
	m.Gate(qasm.T, 1) // step 1, region 0 (evicts q0)
	m.Gate(qasm.X, 0) // step 2, region 0 (q0 returns)
	steps := [][][]int32{
		{{0}},
		{{1}},
		{{2}},
	}
	s := sched(t, m, steps, 1)

	noLocal, err := comm.Analyze(s, comm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Window is 1 step, journey 8 -> stall 7.
	if noLocal.Overhead[2] != 7 {
		t.Errorf("no-local overhead: %v", noLocal.Overhead)
	}
	if noLocal.GlobalMoves != 4 { // 2 initial loads + evict + return
		t.Errorf("global moves = %d", noLocal.GlobalMoves)
	}

	withLocal, err := comm.Analyze(s, comm.Options{LocalCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Journey 2 (local out + local in), window 1 -> stall 1.
	if withLocal.Overhead[2] != 1 {
		t.Errorf("local overhead: %v", withLocal.Overhead)
	}
	if withLocal.LocalMoves != 2 || withLocal.GlobalMoves != 2 {
		t.Errorf("moves: %d local, %d global", withLocal.LocalMoves, withLocal.GlobalMoves)
	}
	if withLocal.MaxLocalOccupancy != 1 {
		t.Errorf("occupancy %d", withLocal.MaxLocalOccupancy)
	}
	if withLocal.Cycles >= noLocal.Cycles {
		t.Errorf("local memory did not help: %d vs %d", withLocal.Cycles, noLocal.Cycles)
	}
}

func TestLocalCapacityLimit(t *testing.T) {
	// Two qubits want the scratchpad simultaneously; capacity 1 forces
	// one through global memory.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 3}})
	m.Gate(qasm.CNOT, 0, 1) // step 0 region 0
	m.Gate(qasm.T, 2)       // step 1 region 0 (evicts q0 and q1)
	m.Gate(qasm.CNOT, 0, 1) // step 2 region 0
	steps := [][][]int32{
		{{0}},
		{{1}},
		{{2}},
	}
	s := sched(t, m, steps, 1)
	res, err := comm.Analyze(s, comm.Options{LocalCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalMoves != 2 || res.GlobalMoves != 3+2 {
		t.Errorf("moves: %d local, %d global", res.LocalMoves, res.GlobalMoves)
	}
	if res.MaxLocalOccupancy != 1 {
		t.Errorf("occupancy %d exceeds capacity", res.MaxLocalOccupancy)
	}
}

func TestIdleRegionStoresPassively(t *testing.T) {
	// Qubit used in region 0, region 0 then idles while region 1 works;
	// qubit reused in region 0 later: it never moves.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.H, 0)
	m.Gate(qasm.T, 1)
	m.Gate(qasm.X, 0)
	steps := [][][]int32{
		{{0}, nil},
		{nil, {1}},
		{{2}, nil},
	}
	s := sched(t, m, steps, 2)
	res, err := comm.Analyze(s, comm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalMoves != 2 { // only the two initial loads
		t.Errorf("global moves = %d, want 2", res.GlobalMoves)
	}
	if res.Cycles != 3 {
		t.Errorf("cycles = %d", res.Cycles)
	}
}

// Property: for any schedule, cycles are bounded below by step count and
// above by the no-overlap accounting; local memory never increases
// cycles; EPR pairs equal global moves.
func TestAccountingInvariantsQuick(t *testing.T) {
	f := func(seed int64, useLPFS bool, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%3) + 1
		m := verify.RandomLeaf(rng, verify.GenOptions{Ops: 40, Qubits: 5})
		g, err := dag.Build(m)
		if err != nil {
			return false
		}
		var s *schedule.Schedule
		if useLPFS {
			s, err = lpfs.Schedule(m, g, lpfs.Options{K: k})
		} else {
			s, err = rcp.Schedule(m, g, rcp.Options{K: k})
		}
		if err != nil {
			return false
		}
		masked, err := comm.Analyze(s, comm.Options{})
		if err != nil {
			return false
		}
		strict, err := comm.Analyze(s, comm.Options{NoOverlap: true})
		if err != nil {
			return false
		}
		local, err := comm.Analyze(s, comm.Options{LocalCapacity: -1})
		if err != nil {
			return false
		}
		if masked.EPRPairs != masked.GlobalMoves {
			return false
		}
		if masked.Cycles < int64(s.Length()) {
			return false
		}
		// Strict accounting bounds each boundary at 4; masking can
		// concentrate a round-trip's 8 cycles at one boundary but can
		// never exceed the total movement volume.
		if masked.Cycles > int64(s.Length())+
			comm.TeleportCycles*masked.GlobalMoves+int64(comm.LocalCycles)*masked.LocalMoves {
			return false
		}
		if local.Cycles > masked.Cycles {
			return false
		}
		// Move counts identical between masked and strict (same policy,
		// different charging).
		return masked.GlobalMoves == strict.GlobalMoves && masked.LocalMoves == strict.LocalMoves
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEPRBandwidthThrottling(t *testing.T) {
	// 4 qubits prepared in region 0, then all consumed by region 1:
	// boundary 0 carries 4 pre-distributed first-use loads, boundary 1
	// carries 4 genuine runtime teleports that compete for the channel.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 4}})
	for i := 0; i < 4; i++ {
		m.Gate(qasm.H, i)
	}
	for i := 0; i < 4; i++ {
		m.Gate(qasm.X, i)
	}
	steps := [][][]int32{
		{{0, 1, 2, 3}, nil},
		{nil, {4, 5, 6, 7}},
	}
	s := sched(t, m, steps, 2)

	free, err := comm.Analyze(s, comm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if free.PeakEPRBandwidth != 4 {
		t.Errorf("peak bandwidth %d, want 4", free.PeakEPRBandwidth)
	}
	// Loads masked; the 4 zero-window teleports stall boundary 1 by 4.
	if free.Cycles != 2+comm.TeleportCycles {
		t.Errorf("unthrottled cycles %d, want %d", free.Cycles, 2+comm.TeleportCycles)
	}

	throttled, err := comm.Analyze(s, comm.Options{EPRBandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 4 runtime teleports through a width-1 channel: 3 extra waves of 4
	// cycles on top of the stall; the first-use loads at boundary 0 are
	// pre-distributed and never throttled.
	if throttled.Overhead[0] != 0 {
		t.Errorf("boundary 0 overhead %d, want 0 (pre-distributed loads)", throttled.Overhead[0])
	}
	if throttled.Cycles != free.Cycles+3*comm.TeleportCycles {
		t.Errorf("throttled cycles %d, want %d", throttled.Cycles, free.Cycles+3*comm.TeleportCycles)
	}

	half, err := comm.Analyze(s, comm.Options{EPRBandwidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if half.Cycles != free.Cycles+1*comm.TeleportCycles {
		t.Errorf("bw=2 cycles %d, want %d", half.Cycles, free.Cycles+comm.TeleportCycles)
	}

	// NoOverlap keeps §4.4's strict accounting: first-use loads charge
	// the channel too (4 at each boundary, 3 extra waves at both).
	strict, err := comm.Analyze(s, comm.Options{NoOverlap: true, EPRBandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2 + 2*(comm.TeleportCycles+3*comm.TeleportCycles))
	if strict.Cycles != want {
		t.Errorf("strict throttled cycles %d, want %d", strict.Cycles, want)
	}
}

// TestDegenerateSchedules pins Analyze on empty and single-step
// schedules: no phantom moves, and — the regression — a single-step
// schedule's moves are all pre-distributed first-use loads, so a finite
// EPR bandwidth must not serialize them into runtime stalls.
func TestDegenerateSchedules(t *testing.T) {
	empty := ir.NewModule("empty", nil, []ir.Reg{{Name: "q", Size: 2}})
	es := sched(t, empty, nil, 2)
	for _, opts := range []comm.Options{{}, {NoOverlap: true}, {EPRBandwidth: 1}, {LocalCapacity: 1}} {
		res, err := comm.Analyze(es, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if res.Cycles != 0 || res.GlobalMoves != 0 || res.LocalMoves != 0 ||
			len(res.Boundaries) != 0 || res.PeakEPRBandwidth != 0 {
			t.Errorf("opts %+v: empty schedule reports %+v", opts, res)
		}
	}

	m := ir.NewModule("single", nil, []ir.Reg{{Name: "q", Size: 4}})
	for i := 0; i < 4; i++ {
		m.Gate(qasm.H, i)
	}
	s := sched(t, m, [][][]int32{{{0, 1, 2, 3}}}, 1)
	for _, bw := range []int{0, 1, 2, 3} {
		res, err := comm.Analyze(s, comm.Options{EPRBandwidth: bw})
		if err != nil {
			t.Fatal(err)
		}
		if res.GlobalMoves != 4 {
			t.Errorf("bw=%d: global moves %d, want 4 initial loads", bw, res.GlobalMoves)
		}
		if res.Cycles != 1 {
			t.Errorf("bw=%d: cycles %d, want 1 (loads ride pre-distribution)", bw, res.Cycles)
		}
	}
	if res, err := comm.Analyze(s, comm.Options{NoOverlap: true, EPRBandwidth: 1}); err != nil {
		t.Fatal(err)
	} else if res.Cycles != 1+4*comm.TeleportCycles {
		// Strict: one 4-cycle charge plus 3 serialization waves.
		t.Errorf("strict bw=1 cycles %d, want %d", res.Cycles, 1+4*comm.TeleportCycles)
	}
}
