package lower_test

import (
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lower"
	"github.com/scaffold-go/multisimd/internal/parser"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/sema"
)

func lowerSrc(t *testing.T, src string, opts lower.Options) *ir.Program {
	t.Helper()
	ast, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := sema.Check(ast); err != nil {
		t.Fatalf("sema: %v", err)
	}
	p, err := lower.Lower(ast, "main", opts)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

func TestLowerBasic(t *testing.T) {
	p := lowerSrc(t, `
module main() {
  qbit q[2];
  H(q[0]);
  CNOT(q[0], q[1]);
}`, lower.Options{})
	m := p.EntryModule()
	if m.TotalSlots() != 2 || len(m.Ops) != 2 {
		t.Fatalf("slots=%d ops=%d", m.TotalSlots(), len(m.Ops))
	}
	if m.Ops[0].Gate != qasm.H || m.Ops[1].Gate != qasm.CNOT {
		t.Errorf("gates: %v %v", m.Ops[0].Gate, m.Ops[1].Gate)
	}
	if m.Ops[1].Args[0] != 0 || m.Ops[1].Args[1] != 1 {
		t.Errorf("CNOT args: %v", m.Ops[1].Args)
	}
}

func TestLowerUnrollsVarDependentLoops(t *testing.T) {
	p := lowerSrc(t, `
module main() {
  qbit q[5];
  for (i = 0; i < 5; i++) { H(q[i]); }
}`, lower.Options{})
	m := p.EntryModule()
	if len(m.Ops) != 5 {
		t.Fatalf("expected 5 unrolled ops, got %d", len(m.Ops))
	}
	for i, op := range m.Ops {
		if op.Args[0] != i {
			t.Errorf("op %d targets slot %d", i, op.Args[0])
		}
	}
}

func TestLowerCollapsesSingleOpLoops(t *testing.T) {
	p := lowerSrc(t, `
module main() {
  qbit q;
  for (i = 0; i < 1000000; i++) { H(q); }
}`, lower.Options{})
	m := p.EntryModule()
	if len(m.Ops) != 1 {
		t.Fatalf("expected 1 collapsed op, got %d", len(m.Ops))
	}
	if m.Ops[0].Count != 1000000 {
		t.Errorf("count = %d", m.Ops[0].Count)
	}
}

func TestLowerOutlinesMultiOpLoops(t *testing.T) {
	p := lowerSrc(t, `
module main() {
  qbit q[2];
  for (i = 0; i < 1000; i++) {
    H(q[0]);
    CNOT(q[0], q[1]);
  }
}`, lower.Options{})
	m := p.EntryModule()
	if len(m.Ops) != 1 || m.Ops[0].Kind != ir.CallOp {
		t.Fatalf("expected 1 synthetic call, got %+v", m.Ops)
	}
	if m.Ops[0].Count != 1000 {
		t.Errorf("count = %d", m.Ops[0].Count)
	}
	synth := p.Modules[m.Ops[0].Callee]
	if synth == nil || len(synth.Ops) != 2 {
		t.Fatalf("synthetic module wrong: %+v", synth)
	}
	// (AB)^n semantics preserved: program gate count is 2000.
	if total := synth.MaterializedSize() * m.Ops[0].Count; total != 2000 {
		t.Errorf("expanded size %d", total)
	}
}

func TestLowerSmallLoopInlines(t *testing.T) {
	p := lowerSrc(t, `
module main() {
  qbit q[2];
  for (i = 0; i < 3; i++) {
    H(q[0]);
    CNOT(q[0], q[1]);
  }
}`, lower.Options{})
	if got := len(p.EntryModule().Ops); got != 6 {
		t.Fatalf("expected 6 unrolled ops, got %d", got)
	}
}

func TestLowerIfResolution(t *testing.T) {
	p := lowerSrc(t, `
module main() {
  qbit q;
  for (i = 0; i < 4; i++) {
    if (i % 2 == 0) { X(q); } else { Z(q); }
  }
}`, lower.Options{})
	m := p.EntryModule()
	want := []qasm.Opcode{qasm.X, qasm.Z, qasm.X, qasm.Z}
	if len(m.Ops) != 4 {
		t.Fatalf("got %d ops", len(m.Ops))
	}
	for i, op := range m.Ops {
		if op.Gate != want[i] {
			t.Errorf("op %d: %v want %v", i, op.Gate, want[i])
		}
	}
}

func TestLowerLocalHoisting(t *testing.T) {
	// Ancilla declared in a loop body reuses slots across iterations.
	p := lowerSrc(t, `
module main() {
  qbit q;
  for (i = 0; i < 8; i++) {
    qbit anc[2];
    CNOT(q, anc[0]);
    CNOT(q, anc[1]);
  }
}`, lower.Options{})
	m := p.EntryModule()
	if m.TotalSlots() != 3 {
		t.Errorf("expected 3 slots (q + hoisted anc[2]), got %d", m.TotalSlots())
	}
}

func TestLowerSliceArgs(t *testing.T) {
	p := lowerSrc(t, `
module f(qbit x[2]) { CNOT(x[0], x[1]); }
module main() {
  qbit q[6];
  f(q[2:4]);
}`, lower.Options{})
	m := p.EntryModule()
	call := m.Ops[0]
	if call.Kind != ir.CallOp || len(call.CallArgs) != 1 {
		t.Fatalf("call: %+v", call)
	}
	if call.CallArgs[0] != (ir.Range{Start: 2, Len: 2}) {
		t.Errorf("range: %+v", call.CallArgs[0])
	}
}

func TestLowerAngles(t *testing.T) {
	p := lowerSrc(t, `
module main() {
  qbit q;
  Rz(q, 3.0/2);
  for (i = 1; i < 3; i++) { Rz(q, i * 0.25); }
}`, lower.Options{})
	m := p.EntryModule()
	if m.Ops[0].Angle != 1.5 {
		t.Errorf("angle 0: %g", m.Ops[0].Angle)
	}
	if m.Ops[1].Angle != 0.25 || m.Ops[2].Angle != 0.5 {
		t.Errorf("loop angles: %g %g", m.Ops[1].Angle, m.Ops[2].Angle)
	}
}

func TestLowerIndexOutOfRange(t *testing.T) {
	ast, err := parser.Parse(`
module main() {
  qbit q[4];
  for (i = 0; i < 5; i++) { H(q[i]); }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sema.Check(ast); err != nil {
		t.Fatal(err)
	}
	if _, err := lower.Lower(ast, "main", lower.Options{}); err == nil {
		t.Error("accepted out-of-range index")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("wrong error: %v", err)
	}
}

func TestLowerMaxUnrollGuard(t *testing.T) {
	ast, err := parser.Parse(`
module main() {
  qbit q[8];
  for (i = 0; i < 100; i++) { H(q[i % 8]); }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lower.Lower(ast, "main", lower.Options{MaxUnroll: 50}); err == nil {
		t.Error("exceeded MaxUnroll silently")
	}
}

func TestLowerValidatesResult(t *testing.T) {
	p := lowerSrc(t, `
module leaf(qbit a) { H(a); }
module mid(qbit a, qbit b) { leaf(a); leaf(b); }
module main() { qbit q[2]; mid(q[0], q[1]); }`, lower.Options{})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo, err := p.Topo(); err != nil || len(topo) != 3 {
		t.Errorf("topo: %v %v", topo, err)
	}
}

func TestLowerExpressionEvaluation(t *testing.T) {
	p := lowerSrc(t, `
module main() {
  qbit q[64];
  H(q[(1 << 4) + 3]);
  H(q[10 % 3]);
  H(q[-(-7)]);
  H(q[20 / 4]);
}`, lower.Options{})
	m := p.EntryModule()
	want := []int{19, 1, 7, 5}
	for i, w := range want {
		if m.Ops[i].Args[0] != w {
			t.Errorf("op %d targets %d, want %d", i, m.Ops[i].Args[0], w)
		}
	}
}

func TestLowerCondVariants(t *testing.T) {
	p := lowerSrc(t, `
module main() {
  qbit q;
  if (1 <= 1) { X(q); }
  if (2 >= 3) { Y(q); }
  if (2 > 1) { Z(q); }
  if (1 != 1) { H(q); }
  if (4 == 4) { T(q); }
}`, lower.Options{})
	m := p.EntryModule()
	got := make([]qasm.Opcode, len(m.Ops))
	for i := range m.Ops {
		got[i] = m.Ops[i].Gate
	}
	want := []qasm.Opcode{qasm.X, qasm.Z, qasm.T}
	if len(got) != len(want) {
		t.Fatalf("ops: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d: %v want %v", i, got[i], want[i])
		}
	}
}

func TestLowerErrors(t *testing.T) {
	cases := map[string]string{
		"division by zero":    `module main() { qbit q[4]; H(q[1/0]); }`,
		"modulo by zero":      `module main() { qbit q[4]; H(q[1%0]); }`,
		"shift out of range":  `module main() { qbit q[4]; H(q[1 << 63]); }`,
		"negative decl size":  `module main() { qbit q[1-5]; H(q[0]); }`,
		"slice out of range":  `module f(qbit x[2]) { H(x[0]); } module main() { qbit q[4]; f(q[3:5]); }`,
		"inverted slice":      `module f(qbit x[2]) { H(x[0]); } module main() { qbit q[4]; f(q[3:1]); }`,
		"arg width mismatch":  `module f(qbit x[3]) { H(x[0]); } module main() { qbit q[4]; f(q[0:2]); }`,
		"wide gate operand":   `module main() { qbit q[4]; H(q); }`,
		"angle division zero": `module main() { qbit q; Rz(q, 1.0/0); }`,
	}
	for name, src := range cases {
		ast, err := parser.Parse(src)
		if err != nil {
			t.Errorf("%s: parse failed: %v", name, err)
			continue
		}
		if err := sema.Check(ast); err != nil {
			continue // sema may legitimately catch some
		}
		if _, err := lower.Lower(ast, "main", lower.Options{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLowerRejectsNonFiniteAngles: an angle expression that overflows
// to ±Inf, or cancels infinities into NaN, is a positioned lowering
// error, not a rotation that decomposition silently drops.
func TestLowerRejectsNonFiniteAngles(t *testing.T) {
	cases := map[string]string{
		"+Inf":          `module main() { qbit q[1]; Rz(q[0], 1e308*10.0); }`,
		"-Inf":          `module main() { qbit q[1]; Rz(q[0], -1e308*10.0); }`,
		"NaN":           `module main() { qbit q[1]; Rz(q[0], 1e308*10.0 - 1e308*10.0); }`,
		"Inf inside":    `module main() { qbit q[1]; Rz(q[0], 1.0/(1e308*10.0)); }`,
		"loop overflow": `module main() { qbit q[1]; for (i = 1; i < 2; i++) { Rz(q[0], 1e308*(i+9)); } }`,
	}
	for name, src := range cases {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse failed: %v", name, err)
		}
		if err := sema.Check(prog); err != nil {
			t.Fatalf("%s: sema: %v", name, err)
		}
		_, err = lower.Lower(prog, "main", lower.Options{})
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "lower: 1:") || !strings.Contains(msg, "angle overflows") {
			t.Errorf("%s: error %q, want a positioned angle-overflow error", name, msg)
		}
	}
	// Large but finite angles still lower.
	m := lowerSrc(t, `module main() { qbit q[1]; Rz(q[0], 1e308*1.5); }`, lower.Options{}).EntryModule()
	if got := m.Ops[0].Angle; got != 1e308*1.5 {
		t.Errorf("angle %g", got)
	}
}

func TestLowerLoopVarAngles(t *testing.T) {
	p := lowerSrc(t, `
module main() {
  qbit q;
  for (i = 1; i < 4; i++) {
    Rz(q, i);
  }
}`, lower.Options{})
	m := p.EntryModule()
	if len(m.Ops) != 3 {
		t.Fatalf("ops: %d", len(m.Ops))
	}
	for i, want := range []float64{1, 2, 3} {
		if m.Ops[i].Angle != want {
			t.Errorf("angle %d: %g", i, m.Ops[i].Angle)
		}
	}
}

func TestLowerEmptyLoop(t *testing.T) {
	p := lowerSrc(t, `
module main() {
  qbit q;
  for (i = 5; i < 3; i++) { H(q); }
  X(q);
}`, lower.Options{})
	m := p.EntryModule()
	if len(m.Ops) != 1 || m.Ops[0].Gate != qasm.X {
		t.Errorf("empty loop mis-lowered: %+v", m.Ops)
	}
}

func TestLowerNestedCollapse(t *testing.T) {
	// Outer loop var-independent with a large trip over a body holding
	// an inner unrolled loop: outlined synthetic module, repeated.
	p := lowerSrc(t, `
module main() {
  qbit q[3];
  for (i = 0; i < 500; i++) {
    for (j = 0; j < 3; j++) {
      H(q[j]);
    }
    X(q[0]);
  }
}`, lower.Options{})
	m := p.EntryModule()
	if len(m.Ops) != 1 || m.Ops[0].Kind != ir.CallOp || m.Ops[0].Count != 500 {
		t.Fatalf("outer loop not collapsed: %+v", m.Ops)
	}
	synth := p.Modules[m.Ops[0].Callee]
	if len(synth.Ops) != 4 {
		t.Errorf("synthetic body: %d ops", len(synth.Ops))
	}
}
