package flatten_test

import (
	"errors"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/flatten"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/resource"
)

// buildProgram: leaf (3 gates) <- mid (2 calls = 6 gates) <- main
// (4 mid calls = 24 gates).
func buildProgram() *ir.Program {
	p := ir.NewProgram("main")
	leaf := ir.NewModule("leaf", []ir.Reg{{Name: "x", Size: 2}}, nil)
	leaf.Gate(qasm.H, 0).Gate(qasm.CNOT, 0, 1).Gate(qasm.H, 1)
	p.Add(leaf)
	mid := ir.NewModule("mid", []ir.Reg{{Name: "y", Size: 2}}, nil)
	mid.Call("leaf", ir.Range{Start: 0, Len: 2})
	mid.Call("leaf", ir.Range{Start: 0, Len: 2})
	p.Add(mid)
	main := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 8}})
	for i := 0; i < 4; i++ {
		main.Call("mid", ir.Range{Start: i * 2, Len: 2})
	}
	p.Add(main)
	return p
}

func gatesOf(t *testing.T, p *ir.Program, name string) int64 {
	t.Helper()
	est, err := resource.New(p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := est.Gates(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFlattenAll(t *testing.T) {
	p := buildProgram()
	before := gatesOf(t, p, "main")
	stats, err := flatten.Program(p, flatten.Options{Threshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Modules["main"].IsLeaf() || !p.Modules["mid"].IsLeaf() {
		t.Error("modules under FTh kept calls")
	}
	if got := gatesOf(t, p, "main"); got != before {
		t.Errorf("gate count changed: %d -> %d", before, got)
	}
	if stats.Flattened != 2 || stats.AlreadyLeaf != 1 {
		t.Errorf("stats: %+v", stats)
	}
}

func TestFlattenThresholdStopsInlining(t *testing.T) {
	p := buildProgram()
	// FTh 10: leaf (3) stays leaf; mid (6) flattens; main (24) keeps
	// its calls.
	stats, err := flatten.Program(p, flatten.Options{Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Modules["mid"].IsLeaf() {
		t.Error("mid should be flattened")
	}
	if p.Modules["main"].IsLeaf() {
		t.Error("main should stay modular above FTh")
	}
	if stats.KeptModular != 1 {
		t.Errorf("stats: %+v", stats)
	}
	// The kept calls now target a flattened (leaf) mid.
	for i := range p.Modules["main"].Ops {
		op := &p.Modules["main"].Ops[i]
		if op.Kind == ir.CallOp && op.Callee != "mid" {
			t.Errorf("unexpected callee %s", op.Callee)
		}
	}
}

func TestFlattenPreservesSemantics(t *testing.T) {
	// Gate sequences must be identical module-boundary effects: check
	// the flat op stream of main matches manual inline expectation.
	p := buildProgram()
	if _, err := flatten.Program(p, flatten.Options{Threshold: 1000}); err != nil {
		t.Fatal(err)
	}
	main, err := p.Modules["main"].Materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(main.Ops) != 24 {
		t.Fatalf("main has %d ops, want 24", len(main.Ops))
	}
	// First leaf instance operates on q0,q1: H(0) CNOT(0,1) H(1).
	if main.Ops[0].Gate != qasm.H || main.Ops[0].Args[0] != 0 {
		t.Errorf("op0: %+v", main.Ops[0])
	}
	if main.Ops[1].Gate != qasm.CNOT || main.Ops[1].Args[1] != 1 {
		t.Errorf("op1: %+v", main.Ops[1])
	}
	// Third mid instance targets q4,q5.
	if main.Ops[12].Args[0] != 4 {
		t.Errorf("op12 targets slot %d, want 4", main.Ops[12].Args[0])
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFlattenWithCounts(t *testing.T) {
	p := ir.NewProgram("main")
	leaf := ir.NewModule("leaf", []ir.Reg{{Name: "x", Size: 1}}, nil)
	leaf.Gate(qasm.T, 0)
	p.Add(leaf)
	main := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 1}})
	main.CallN("leaf", 50, ir.Range{Start: 0, Len: 1})
	p.Add(main)
	if _, err := flatten.Program(p, flatten.Options{Threshold: 100}); err != nil {
		t.Fatal(err)
	}
	mat, err := p.Modules["main"].Materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mat.Ops) != 50 {
		t.Errorf("replicated to %d ops", len(mat.Ops))
	}
}

func TestDefaultThreshold(t *testing.T) {
	if flatten.DefaultThreshold != 2_000_000 {
		t.Errorf("paper FTh is 2M, got %d", flatten.DefaultThreshold)
	}
}

// TestFlattenGrowthGuard checks that a leaf's expansion is bounded
// where it is consumed: marking copies nothing, and materializing past
// the caller's limit fails with ir.ErrTooLarge before allocating.
func TestFlattenGrowthGuard(t *testing.T) {
	p := ir.NewProgram("main")
	leaf := ir.NewModule("leaf", []ir.Reg{{Name: "x", Size: 1}}, nil)
	leaf.Gate(qasm.T, 0)
	p.Add(leaf)
	main := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 1}})
	main.CallN("leaf", 100, ir.Range{Start: 0, Len: 1})
	p.Add(main)
	if _, err := flatten.Program(p, flatten.Options{Threshold: 100}); err != nil {
		t.Fatalf("legit flatten rejected: %v", err)
	}
	if m := p.Modules["main"]; !m.IsLeaf() || len(m.Ops) != 1 || m.MaterializedSize() != 100 {
		t.Errorf("marked main: leaf %v, %d ops, expands to %d", m.IsLeaf(), len(m.Ops), m.MaterializedSize())
	}
	if _, err := p.Modules["main"].Materialize(99); !errors.Is(err, ir.ErrTooLarge) {
		t.Errorf("materializing past the limit: %v", err)
	}
}

func TestFlattenStatsFields(t *testing.T) {
	p := buildProgram()
	stats, err := flatten.Program(p, flatten.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Threshold != flatten.DefaultThreshold {
		t.Errorf("threshold: %d", stats.Threshold)
	}
	if stats.InlinedCallOps == 0 {
		t.Error("no inlined ops recorded")
	}
}

func TestFlattenInvalidProgram(t *testing.T) {
	p := ir.NewProgram("main")
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 1}})
	m.Call("ghost", ir.Range{Start: 0, Len: 1})
	p.Add(m)
	if _, err := flatten.Program(p, flatten.Options{}); err == nil {
		t.Error("missing callee not reported")
	}
}

// BenchmarkFlattenSHA1 measures the flattening pass alone on the gated
// SHA-1 at FTh 2000: each op flattens a fresh copy of the decomposed,
// still modular program.
func BenchmarkFlattenSHA1(b *testing.B) {
	bm, ok := bench.ByName("SHA-1")
	if !ok {
		b.Fatal("no SHA-1 benchmark")
	}
	opts := bm.Pipeline
	opts.SkipFlatten = true
	modular, err := core.Build(bm.Source, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := modular.Clone()
		b.StartTimer()
		if _, err := flatten.Program(p, flatten.Options{Threshold: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}
