package main

import (
	"math"
	"math/cmplx"
	"testing"

	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/sim"
)

// TestTeleportationFig2 verifies the paper's Fig. 2: an arbitrary
// single-qubit state moves from the source to the destination through a
// pre-distributed EPR pair, with the source state destroyed.
func TestTeleportationFig2(t *testing.T) {
	cases := []struct {
		name   string
		prep   []qasm.Opcode
		angles []float64
	}{
		{"zero state", nil, nil},
		{"one state", []qasm.Opcode{qasm.Rx}, []float64{math.Pi}},
		{"plus state", []qasm.Opcode{qasm.Ry}, []float64{math.Pi / 2}},
		{"generic", []qasm.Opcode{qasm.Ry, qasm.Rz}, []float64{1.234, 0.567}},
		{"another", []qasm.Opcode{qasm.Rx, qasm.Rz, qasm.Ry}, []float64{2.5, -0.9, 0.3}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog, err := teleportProgram(tc.prep, tc.angles)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.NewState(3)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.RunProgram(prog); err != nil {
				t.Fatal(err)
			}
			// Reference: the prepared state on a single qubit.
			ref, err := sim.NewState(1)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range tc.prep {
				if err := ref.Apply(g, tc.angles[i], 0); err != nil {
					t.Fatal(err)
				}
			}
			// Qubits 0 and 1 were measured out; the destination (qubit
			// 2) must hold the prepared state: amplitudes of |q2=b> with
			// q0=q1 at their collapsed values.
			var a0, a1 complex128
			found := false
			for low := uint64(0); low < 4 && !found; low++ {
				c0 := st.Amplitude(low)     // q2 = 0
				c1 := st.Amplitude(low | 4) // q2 = 1
				if cmplx.Abs(c0)+cmplx.Abs(c1) > 1e-6 {
					a0, a1 = c0, c1
					found = true
				}
			}
			if !found {
				t.Fatal("no support found in teleported state")
			}
			// Compare (a0, a1) with the reference state up to phase.
			r0, r1 := ref.Amplitude(0), ref.Amplitude(1)
			var phase complex128
			switch {
			case cmplx.Abs(r0) > 1e-9:
				phase = a0 / r0
			case cmplx.Abs(r1) > 1e-9:
				phase = a1 / r1
			default:
				t.Fatal("degenerate reference")
			}
			if math.Abs(cmplx.Abs(phase)-1) > 1e-9 {
				t.Fatalf("teleported state not normalized relative to reference: |phase| = %g", cmplx.Abs(phase))
			}
			if cmplx.Abs(a0-phase*r0) > 1e-9 || cmplx.Abs(a1-phase*r1) > 1e-9 {
				t.Errorf("teleported state mismatch: got (%v, %v), want phase*(%v, %v)", a0, a1, r0, r1)
			}
		})
	}
}

// TestTeleportCircuitShape pins the structure the scheduler charges 4
// cycles for.
func TestTeleportCircuitShape(t *testing.T) {
	m := teleportCircuit()
	if m.ParamSlots() != 3 {
		t.Fatalf("param slots %d", m.ParamSlots())
	}
	if len(m.Ops) != 8 {
		t.Fatalf("ops %d", len(m.Ops))
	}
	if !m.IsLeaf() {
		t.Fatal("teleport circuit must be a leaf")
	}
}

func TestTeleportProgramValidation(t *testing.T) {
	if _, err := teleportProgram([]qasm.Opcode{qasm.Rx}, nil); err == nil {
		t.Error("angle/gate mismatch accepted")
	}
	if _, err := teleportProgram([]qasm.Opcode{qasm.CNOT}, []float64{0}); err == nil {
		t.Error("two-qubit prep gate accepted")
	}
}
