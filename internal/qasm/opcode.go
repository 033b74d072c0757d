// Package qasm defines the logical quantum gate vocabulary shared by the
// whole toolflow, together with QASM-HL text emission and parsing.
//
// The instruction set follows the paper's target: the Clifford group
// (CNOT, H, S) plus T for universality, the Paulis, preparation and
// measurement, and the "wide" gates (Toffoli, Fredkin, arbitrary-angle
// rotations) that exist in the source vocabulary and are lowered to the
// primitive set by the decomposition stage.
package qasm

import "fmt"

// Opcode identifies a logical gate. Values are stable and ordered so that
// schedulers can use them as dense array indices.
type Opcode uint8

const (
	// Single-qubit primitives.
	X Opcode = iota
	Y
	Z
	H
	S
	Sdag
	T
	Tdag
	// Preparation and measurement.
	PrepZ
	MeasZ
	// Two-qubit primitives.
	CNOT
	CZ
	Swap
	// Wide gates: removed by decomposition before scheduling-for-hardware,
	// but schedulable at the logical level.
	Toffoli
	Fredkin
	// Arbitrary-angle rotations (decomposed via the SQCT substitute).
	Rx
	Ry
	Rz
	// Controlled rotations (used by phase estimation benchmarks).
	CRz

	NumOpcodes = int(CRz) + 1
)

var opNames = [NumOpcodes]string{
	X: "X", Y: "Y", Z: "Z", H: "H", S: "S", Sdag: "Sdag", T: "T", Tdag: "Tdag",
	PrepZ: "PrepZ", MeasZ: "MeasZ",
	CNOT: "CNOT", CZ: "CZ", Swap: "Swap",
	Toffoli: "Toffoli", Fredkin: "Fredkin",
	Rx: "Rx", Ry: "Ry", Rz: "Rz", CRz: "CRz",
}

var opArity = [NumOpcodes]int{
	X: 1, Y: 1, Z: 1, H: 1, S: 1, Sdag: 1, T: 1, Tdag: 1,
	PrepZ: 1, MeasZ: 1,
	CNOT: 2, CZ: 2, Swap: 2,
	Toffoli: 3, Fredkin: 3,
	Rx: 1, Ry: 1, Rz: 1, CRz: 2,
}

var opRotation = [NumOpcodes]bool{Rx: true, Ry: true, Rz: true, CRz: true}

// Primitive gates are those directly expressible in QASM-HL after
// decomposition (the universal Clifford+T set plus prepare/measure).
var opPrimitive = [NumOpcodes]bool{
	X: true, Y: true, Z: true, H: true, S: true, Sdag: true, T: true, Tdag: true,
	PrepZ: true, MeasZ: true, CNOT: true, CZ: true, Swap: false,
}

func (op Opcode) String() string {
	if int(op) < NumOpcodes {
		return opNames[op]
	}
	return fmt.Sprintf("Opcode(%d)", uint8(op))
}

// Arity reports the number of qubit operands the gate takes.
func (op Opcode) Arity() int {
	if int(op) < NumOpcodes {
		return opArity[op]
	}
	return 0
}

// IsRotation reports whether the gate carries an angle parameter.
func (op Opcode) IsRotation() bool {
	return int(op) < NumOpcodes && opRotation[op]
}

// IsPrimitive reports whether the gate belongs to the post-decomposition
// QASM target set.
func (op Opcode) IsPrimitive() bool {
	return int(op) < NumOpcodes && opPrimitive[op]
}

// Valid reports whether op is a known opcode.
func (op Opcode) Valid() bool { return int(op) < NumOpcodes }

// ByName maps a gate mnemonic to its opcode. The second result is false
// when the name is unknown.
func ByName(name string) (Opcode, bool) {
	op, ok := byName[name]
	return op, ok
}

var byName = func() map[string]Opcode {
	m := make(map[string]Opcode, NumOpcodes)
	for i := 0; i < NumOpcodes; i++ {
		m[opNames[i]] = Opcode(i)
	}
	return m
}()
