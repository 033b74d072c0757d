package decompose_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/decompose"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/sim"
)

// runBoth runs the original and decomposed versions of a single-gate
// module from random states and compares up to global phase.
func runBoth(t *testing.T, op qasm.Opcode, angle float64, n int, opts decompose.Options) {
	t.Helper()
	p := ir.NewProgram("main")
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: n}})
	args := make([]int, op.Arity())
	for i := range args {
		args[i] = i
	}
	m.Ops = append(m.Ops, ir.Op{Kind: ir.GateOp, Gate: op, Angle: angle, Args: args, Count: 1})
	p.Add(m)

	dp := p.Clone()
	if _, err := decompose.Program(dp, opts); err != nil {
		t.Fatal(err)
	}
	for i := range dp.Modules[dp.Entry].Ops {
		dop := &dp.Modules[dp.Entry].Ops[i]
		if dop.Kind == ir.GateOp && !dop.Gate.IsPrimitive() {
			t.Fatalf("non-primitive %s survived decomposition", dop.Gate)
		}
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 4; trial++ {
		orig, err := sim.NewRandomState(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		dec := orig.Clone()
		if err := orig.RunProgram(p); err != nil {
			t.Fatal(err)
		}
		if err := dec.RunProgram(dp); err != nil {
			t.Fatal(err)
		}
		if !sim.EqualUpToPhase(orig, dec, 1e-9) {
			t.Fatalf("%s(%g) decomposition changes semantics", op, angle)
		}
	}
}

func TestToffoliDecomposition(t *testing.T) {
	runBoth(t, qasm.Toffoli, 0, 3, decompose.Options{})
}

func TestFredkinDecomposition(t *testing.T) {
	runBoth(t, qasm.Fredkin, 0, 3, decompose.Options{})
}

func TestSwapDecomposition(t *testing.T) {
	runBoth(t, qasm.Swap, 0, 2, decompose.Options{})
}

func TestExactRotations(t *testing.T) {
	// Multiples of π/4 decompose exactly.
	for k := -8; k <= 8; k++ {
		runBoth(t, qasm.Rz, float64(k)*math.Pi/4, 1, decompose.Options{})
	}
}

func TestExactRxRy(t *testing.T) {
	// Rx/Ry via H/S conjugation of exact Rz.
	runBoth(t, qasm.Rx, math.Pi/2, 1, decompose.Options{})
	runBoth(t, qasm.Ry, math.Pi, 1, decompose.Options{})
}

func TestExactCRz(t *testing.T) {
	// CRz(θ) lowers to Rz(±θ/2) and CNOTs; θ = π/2 keeps both halves
	// exact.
	runBoth(t, qasm.CRz, math.Pi/2, 2, decompose.Options{})
}

func TestApproxSequenceProperties(t *testing.T) {
	// Deterministic per angle; length tracks epsilon; primitive-only.
	a := decompose.ApproxSequence(0.3, 1e-10)
	b := decompose.ApproxSequence(0.3, 1e-10)
	if len(a) != len(b) {
		t.Fatal("nondeterministic sequence")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic sequence content")
		}
	}
	c := decompose.ApproxSequence(0.30001, 1e-10)
	same := len(a) == len(c)
	if same {
		identical := true
		for i := range a {
			if a[i] != c[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("distinct angles produced identical sequences")
		}
	}
	loose := decompose.ApproxSequence(0.3, 1e-4)
	if len(loose) >= len(a) {
		t.Errorf("looser epsilon should shorten: %d vs %d", len(loose), len(a))
	}
	for _, g := range a {
		if !g.IsPrimitive() {
			t.Errorf("non-primitive %s in sequence", g)
		}
	}
	// Equal angles modulo 2π share a sequence (and thus a module).
	d := decompose.ApproxSequence(0.3+2*math.Pi, 1e-10)
	if len(d) != len(a) {
		t.Error("2π-equivalent angles differ")
	}
}

func TestRotationsBecomeBlackboxes(t *testing.T) {
	p := ir.NewProgram("main")
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Rot(qasm.Rz, 0.3, 0)
	m.Rot(qasm.Rz, 0.3, 1)  // same angle: shared module
	m.Rot(qasm.Rz, 0.55, 0) // new angle: new module
	p.Add(m)
	created, err := decompose.Program(p, decompose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if created != 2 {
		t.Errorf("created %d rotation modules, want 2", created)
	}
	calls := 0
	for i := range p.Modules["main"].Ops {
		if p.Modules["main"].Ops[i].Kind == ir.CallOp {
			calls++
		}
	}
	if calls != 3 {
		t.Errorf("%d rotation calls, want 3", calls)
	}
	// Each rotation module's body is exactly sized, and every gate's
	// operand list is a window clipped to its one slot, so appending to
	// one cannot overwrite the next.
	for name, rm := range p.Modules {
		if name == "main" {
			continue
		}
		if cap(rm.Ops) != len(rm.Ops) {
			t.Errorf("%s: %d ops in a slice of cap %d", name, len(rm.Ops), cap(rm.Ops))
		}
		for i := range rm.Ops {
			if a := rm.Ops[i].Args; len(a) != 1 || cap(a) != 1 || a[0] != 0 {
				t.Fatalf("%s op %d: operands %v (cap %d)", name, i, a, cap(a))
			}
		}
	}
}

// TestRepeatedAngleApproximatesOnce: a repeated non-exact angle finds
// its rotation module and is not approximated again, so every repeat
// after the first allocates only for its call op: the operand range and
// the callee name.
func TestRepeatedAngleApproximatesOnce(t *testing.T) {
	const runs = 5
	allocs := func(n int) float64 {
		// AllocsPerRun calls f runs+1 times; decomposition is in place, so
		// each call gets its own program, built outside the measurement.
		progs := make([]*ir.Program, runs+1)
		for i := range progs {
			progs[i] = ir.NewProgram("main")
			m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 1}})
			for j := 0; j < n; j++ {
				m.Rot(qasm.Rz, 0.3, 0)
			}
			progs[i].Add(m)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := decompose.Program(progs[next], decompose.Options{}); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	const n = 200
	if per := (allocs(2*n) - allocs(n)) / n; per > 2 {
		t.Errorf("%.2f allocations per repeated rotation, want at most 2 for its call op", per)
	}
}

func TestCountedWideGateReplication(t *testing.T) {
	p := ir.NewProgram("main")
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 3}})
	m.Ops = append(m.Ops, ir.Op{Kind: ir.GateOp, Gate: qasm.Toffoli, Args: []int{0, 1, 2}, Count: 4})
	p.Add(m)
	if _, err := decompose.Program(p, decompose.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Modules["main"].Ops); got != 60 { // 4 × 15-gate circuit
		t.Errorf("replicated to %d ops, want 60", got)
	}
}

func TestIdentityRotationVanishes(t *testing.T) {
	p := ir.NewProgram("main")
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 1}})
	m.Rot(qasm.Rz, 0, 0)
	p.Add(m)
	if _, err := decompose.Program(p, decompose.Options{}); err != nil {
		t.Fatal(err)
	}
	if len(p.Modules["main"].Ops) != 0 {
		t.Errorf("identity rotation left %d ops", len(p.Modules["main"].Ops))
	}
}

func TestEpsilonControlsModuleCount(t *testing.T) {
	// Same angles at different epsilon produce distinct modules (the
	// name is keyed on both), and coarser epsilon means shorter bodies.
	build := func(eps float64) *ir.Program {
		p := ir.NewProgram("main")
		m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 1}})
		m.Rot(qasm.Rz, 0.3, 0)
		p.Add(m)
		if _, err := decompose.Program(p, decompose.Options{Epsilon: eps}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	fine := build(1e-12)
	coarse := build(1e-3)
	var fineLen, coarseLen int
	for name, m := range fine.Modules {
		if name != "main" {
			fineLen = len(m.Ops)
		}
	}
	for name, m := range coarse.Modules {
		if name != "main" {
			coarseLen = len(m.Ops)
		}
	}
	if coarseLen >= fineLen {
		t.Errorf("eps=1e-3 body (%d) should be shorter than eps=1e-12 (%d)", coarseLen, fineLen)
	}
}

func TestDecomposeInvalidProgram(t *testing.T) {
	p := ir.NewProgram("main")
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 1}})
	m.Call("ghost", ir.Range{Start: 0, Len: 1})
	p.Add(m)
	if _, err := decompose.Program(p, decompose.Options{}); err == nil {
		t.Error("missing callee not reported")
	}
}

func TestApproxLengthMatchesSequence(t *testing.T) {
	for _, eps := range []float64{1e-4, 1e-10, 1e-14} {
		approx := decompose.ApproxLength(eps)
		actual := len(decompose.ApproxSequence(0.77, eps))
		// The skeleton emits 2-3 gates per T plus a Clifford tail; the
		// estimate tracks within a factor of two.
		if actual < approx/2 || actual > 2*approx+4 {
			t.Errorf("eps=%g: estimate %d vs actual %d", eps, approx, actual)
		}
	}
	if decompose.ApproxLength(5) != decompose.ApproxLength(1e-10) {
		t.Error("invalid epsilon not defaulted")
	}
}

// BenchmarkDecomposeSHA1 measures the decomposition pass alone on the
// gated SHA-1: each op decomposes a fresh copy of the lowered program.
func BenchmarkDecomposeSHA1(b *testing.B) {
	bm, ok := bench.ByName("SHA-1")
	if !ok {
		b.Fatal("no SHA-1 benchmark")
	}
	lowered, err := core.Frontend(bm.Source, bm.Pipeline)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := lowered.Clone()
		b.StartTimer()
		if _, err := decompose.Program(p, decompose.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
