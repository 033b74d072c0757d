package qasm

import (
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpcodeMetadata(t *testing.T) {
	for i := 0; i < NumOpcodes; i++ {
		op := Opcode(i)
		if op.String() == "" {
			t.Errorf("opcode %d has no name", i)
		}
		if op.Arity() < 1 || op.Arity() > 3 {
			t.Errorf("%s: arity %d out of range", op, op.Arity())
		}
		got, ok := ByName(op.String())
		if !ok || got != op {
			t.Errorf("ByName(%q) = %v, %v", op.String(), got, ok)
		}
		if !op.Valid() {
			t.Errorf("%s reported invalid", op)
		}
	}
	if Opcode(200).Valid() {
		t.Error("opcode 200 reported valid")
	}
	if _, ok := ByName("NotAGate"); ok {
		t.Error("ByName accepted unknown gate")
	}
}

func TestRotationFlags(t *testing.T) {
	rot := map[Opcode]bool{Rx: true, Ry: true, Rz: true, CRz: true}
	for i := 0; i < NumOpcodes; i++ {
		op := Opcode(i)
		if op.IsRotation() != rot[op] {
			t.Errorf("%s: IsRotation = %v", op, op.IsRotation())
		}
	}
}

func TestPrimitiveSet(t *testing.T) {
	for _, op := range []Opcode{X, Y, Z, H, S, Sdag, T, Tdag, CNOT, CZ, PrepZ, MeasZ} {
		if !op.IsPrimitive() {
			t.Errorf("%s should be primitive", op)
		}
	}
	for _, op := range []Opcode{Toffoli, Fredkin, Rx, Ry, Rz, CRz, Swap} {
		if op.IsPrimitive() {
			t.Errorf("%s should not be primitive", op)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	decl := []string{"a", "b[0]", "b[1]", "anc"}
	insts := []Inst{
		{Op: H, Qubits: []string{"a"}},
		{Op: CNOT, Qubits: []string{"a", "b[0]"}},
		{Op: Toffoli, Qubits: []string{"a", "b[0]", "b[1]"}},
		{Op: Rz, Angle: 0.78539816, Qubits: []string{"anc"}},
		{Op: CRz, Angle: -1.5, Qubits: []string{"a", "anc"}},
		{Op: MeasZ, Qubits: []string{"b[1]"}},
	}
	var sb strings.Builder
	if err := write(&sb, decl, insts); err != nil {
		t.Fatal(err)
	}
	gotDecl, gotInsts, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, sb.String())
	}
	if len(gotDecl) != len(decl) {
		t.Fatalf("declarations: got %d, want %d", len(gotDecl), len(decl))
	}
	for i := range decl {
		if gotDecl[i] != decl[i] {
			t.Errorf("decl %d: %q != %q", i, gotDecl[i], decl[i])
		}
	}
	if len(gotInsts) != len(insts) {
		t.Fatalf("instructions: got %d, want %d", len(gotInsts), len(insts))
	}
	for i := range insts {
		a, b := insts[i], gotInsts[i]
		if a.Op != b.Op || a.Angle != b.Angle || len(a.Qubits) != len(b.Qubits) {
			t.Errorf("inst %d: %v != %v", i, a, b)
		}
		for j := range a.Qubits {
			if a.Qubits[j] != b.Qubits[j] {
				t.Errorf("inst %d qubit %d: %q != %q", i, j, a.Qubits[j], b.Qubits[j])
			}
		}
	}
}

func TestParseToleratesCommentsAndBlank(t *testing.T) {
	src := "# header\n\nqubit q0\n\nH(q0)\n# trailing\n"
	decl, insts, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(decl) != 1 || len(insts) != 1 {
		t.Fatalf("got %d decls, %d insts", len(decl), len(insts))
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"H q0",          // no parens
		"Frob(q0)",      // unknown gate
		"H(q0,q1)",      // wrong arity
		"CNOT(q0)",      // wrong arity
		"Rz(q0)",        // missing angle
		"Rz(q0,notnum)", // bad angle
		"Rz(q0,nan)",    // non-finite angles
		"Rz(q0,-Inf)",
		"Rx(q0,1e999)",
		"Toffoli(a,b)", // wrong arity
	} {
		if _, _, err := Parse(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// Property: every instruction round-trips through its text form.
func TestInstStringRoundTripQuick(t *testing.T) {
	f := func(opRaw uint8, angleMilli int32, q1, q2, q3 uint8) bool {
		op := Opcode(int(opRaw) % NumOpcodes)
		names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		qubits := []string{names[q1%8], names[(q2%7)+1], "x[" + names[q3%8] + "]"}
		// Ensure distinct names for the arity taken.
		qubits[1] = qubits[0] + "_2"
		qubits[2] = qubits[0] + "_3"
		in := Inst{Op: op, Qubits: qubits[:op.Arity()]}
		if op.IsRotation() {
			in.Angle = float64(angleMilli) / 1024
		}
		var sb strings.Builder
		if err := write(&sb, nil, []Inst{in}); err != nil {
			return false
		}
		parsed, err := parseInst(strings.TrimSuffix(sb.String(), "\n"))
		if err != nil {
			return false
		}
		if parsed.Op != in.Op || parsed.Angle != in.Angle || len(parsed.Qubits) != len(in.Qubits) {
			return false
		}
		for i := range in.Qubits {
			if parsed.Qubits[i] != in.Qubits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// write renders a declaration block and instructions through a Writer.
func write(w io.Writer, declared []string, insts []Inst) error {
	qw := NewWriter(w)
	for _, q := range declared {
		qw.Declare(q)
	}
	for _, in := range insts {
		qw.Inst(in.Op, in.Angle, in.Qubits)
	}
	return qw.Flush()
}
