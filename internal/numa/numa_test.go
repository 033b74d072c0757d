package numa_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/numa"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

func TestBankOf(t *testing.T) {
	// k=4, 2 banks: regions 0,1 -> bank 0; regions 2,3 -> bank 1.
	cases := []struct {
		region int32
		k, b   int
		want   int
	}{
		{0, 4, 2, 0}, {1, 4, 2, 0}, {2, 4, 2, 1}, {3, 4, 2, 1},
		{0, 4, 4, 0}, {3, 4, 4, 3},
		{5, 8, 2, 1},
		{7, 8, 4, 3},
		{0, 1, 1, 0},
	}
	for _, c := range cases {
		if got := numa.BankOf(c.region, c.k, c.b); got != c.want {
			t.Errorf("BankOf(%d, k=%d, banks=%d) = %d, want %d", c.region, c.k, c.b, got, c.want)
		}
	}
}

func TestRoundRobin(t *testing.T) {
	a := numa.RoundRobin(5, 2)
	want := numa.Assignment{0, 1, 0, 1, 0}
	for i := range want {
		if a[i] != want[i] {
			t.Errorf("slot %d -> bank %d, want %d", i, a[i], want[i])
		}
	}
}

// pinnedSchedule puts qubit 0's ops in region 0 and qubit 1's in region
// 3 on a k=4 machine, alternating steps so every use teleports in.
func pinnedSchedule(t *testing.T) (*schedule.Schedule, *comm.Result) {
	t.Helper()
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	var steps [][][]int32
	for i := 0; i < 4; i++ {
		m.Gate(qasm.H, 0)
		m.Gate(qasm.H, 1)
		steps = append(steps,
			[][]int32{{int32(2 * i)}, nil, nil, nil},
			[][]int32{nil, nil, nil, {int32(2*i + 1)}},
		)
	}
	s, err := schedule.FromLists(m, 4, 0, steps)
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

func TestAffinityBeatsRoundRobinOnPinnedQubits(t *testing.T) {
	s, res := pinnedSchedule(t)
	cfg := numa.Config{Banks: 2}

	aff := numa.AffinityMoves(s, res, 2)
	// Qubit 0 teleports into region 0 (bank 0); qubit 1 into region 3
	// (bank 1).
	if aff[0] != 0 || aff[1] != 1 {
		t.Fatalf("affinity: %v", aff)
	}
	affRes, err := numa.Analyze(s, res, aff, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if affRes.FarMoves != 0 {
		t.Errorf("affinity mapping still has %d far moves", affRes.FarMoves)
	}

	// An adversarial mapping (swapped) makes every teleport far.
	bad := numa.Assignment{1, 0}
	badRes, err := numa.Analyze(s, res, bad, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if badRes.NearMoves != 0 {
		t.Errorf("swapped mapping still near: %+v", badRes)
	}
	if badRes.Cycles <= affRes.Cycles {
		t.Errorf("far mapping should cost more: %d vs %d", badRes.Cycles, affRes.Cycles)
	}
	if affRes.FarFraction() != 0 || badRes.FarFraction() != 1 {
		t.Errorf("fractions: %g %g", affRes.FarFraction(), badRes.FarFraction())
	}
}

func TestSingleBankIsUniform(t *testing.T) {
	s, res := pinnedSchedule(t)
	a := numa.RoundRobin(s.M.TotalSlots(), 1)
	r, err := numa.Analyze(s, res, a, numa.Config{Banks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.FarMoves != 0 || r.Cycles != res.Cycles {
		t.Errorf("single bank not uniform: %+v", r)
	}
}

// TestExplicitZeroFarPenalty is the regression test for the config bug
// where FarPenalty was a plain int and an explicit 0 was
// indistinguishable from "unset", silently promoting a free inter-bank
// channel to the 2-cycle default.
func TestExplicitZeroFarPenalty(t *testing.T) {
	s, res := pinnedSchedule(t)
	allFar := numa.Assignment{1, 0} // every teleport crosses banks

	zero := 0
	zeroRes, err := numa.Analyze(s, res, allFar, numa.Config{Banks: 2, FarPenalty: &zero})
	if err != nil {
		t.Fatal(err)
	}
	if zeroRes.FarMoves == 0 {
		t.Fatal("mapping expected to produce far moves")
	}
	if zeroRes.Cycles != res.Cycles {
		t.Errorf("explicit zero penalty charged %d extra cycles",
			zeroRes.Cycles-res.Cycles)
	}

	defRes, err := numa.Analyze(s, res, allFar, numa.Config{Banks: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantExtra := numa.DefaultFarPenalty * defRes.FarMoves
	if defRes.Cycles != res.Cycles+wantExtra {
		t.Errorf("nil penalty: cycles = %d, want baseline %d + default %d",
			defRes.Cycles, res.Cycles, wantExtra)
	}

	three := 3
	cfg := numa.Config{Banks: 2, FarPenalty: &three}
	custRes, err := numa.Analyze(s, res, allFar, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if custRes.Cycles != res.Cycles+3*custRes.FarMoves {
		t.Errorf("custom penalty not applied: %+v", custRes)
	}

	neg := -1
	if err := (numa.Config{Banks: 2, FarPenalty: &neg}).Validate(); err == nil {
		t.Error("negative penalty accepted")
	}
}

func TestAnalyzeValidation(t *testing.T) {
	s, res := pinnedSchedule(t)
	if _, err := numa.Analyze(s, res, numa.Assignment{0}, numa.Config{Banks: 2}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := numa.Analyze(s, res, numa.Assignment{5, 5}, numa.Config{Banks: 2}); err == nil {
		t.Error("out-of-range bank accepted")
	}
	if _, err := numa.Analyze(s, res, numa.RoundRobin(2, 2), numa.Config{Banks: 0}); err == nil {
		t.Error("banks=0 accepted")
	}
}

// Property: affinity never has more far moves than round-robin, and
// both account every teleport exactly once.
func TestAffinityDominatesQuick(t *testing.T) {
	f := func(seed int64, banksRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		banks := int(banksRaw%3) + 1
		m := ir.NewModule("rand", nil, []ir.Reg{{Name: "q", Size: 6}})
		for i := 0; i < 50; i++ {
			if rng.Intn(2) == 0 {
				m.Gate(qasm.H, rng.Intn(6))
			} else {
				a := rng.Intn(6)
				b := (a + 1 + rng.Intn(5)) % 6
				m.Gate(qasm.CNOT, a, b)
			}
		}
		g, err := dag.Build(m)
		if err != nil {
			return false
		}
		s, err := lpfs.Schedule(m, g, lpfs.Options{K: 4})
		if err != nil {
			return false
		}
		res, err := comm.Analyze(s, comm.Options{})
		if err != nil {
			return false
		}
		cfg := numa.Config{Banks: banks}
		affMoves, err := numa.Analyze(s, res, numa.AffinityMoves(s, res, banks), cfg)
		if err != nil {
			return false
		}
		rr, err := numa.Analyze(s, res, numa.RoundRobin(s.M.TotalSlots(), banks), cfg)
		if err != nil {
			return false
		}
		for _, r := range []*numa.Result{affMoves, rr} {
			if r.NearMoves+r.FarMoves != res.GlobalMoves {
				return false
			}
		}
		// Move-weighted affinity is per-qubit optimal: it dominates any
		// fixed assignment (theorem, not heuristic).
		return affMoves.FarMoves <= rr.FarMoves
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
