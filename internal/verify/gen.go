package verify

import (
	"math/rand"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
)

// GenOptions shapes RandomLeaf's output. The zero value produces the
// generator the scheduling tests historically used: 60 operations over a
// 5-qubit register drawn from the unitary mix {H, CNOT, T, Rz, CZ}.
// Every default below is pinned by TestGenOptionsZeroValuePinned, so
// seeded corpora recorded against one release keep meaning the same
// circuits in the next.
type GenOptions struct {
	// Ops is the number of gate operations. Zero and negative values
	// both mean the default of 60 (a negative count is treated as
	// unset, not as an error).
	Ops int
	// Qubits is the register size. Zero and negative values mean the
	// default of 5. Explicit positive values are raised to the minimum
	// the gate mix needs rather than rejected: at least 2 (CNOT/CZ need
	// two distinct operands), and at least 3 when Wide is set (the
	// three-qubit gates need three).
	Qubits int
	// Wide adds the three-qubit gates (Toffoli, Fredkin) and Swap to the
	// mix. Leave unset for machines with d < 3.
	Wide bool
	// Measure adds PrepZ/MeasZ. Circuits with measurements schedule and
	// analyze normally but cannot be replay-checked against a state
	// vector, so the differential harness leaves this unset.
	Measure bool
}

func (o GenOptions) ops() int {
	if o.Ops <= 0 {
		return 60
	}
	return o.Ops
}

func (o GenOptions) qubits() int {
	q := o.Qubits
	if q <= 0 {
		q = 5
	}
	if q < 2 {
		q = 2
	}
	if o.Wide && q < 3 {
		q = 3
	}
	return q
}

// RandomLeaf builds a seeded random leaf module: a flat circuit over one
// register, suitable for scheduling, communication analysis and — when
// opts.Measure is unset — state-vector replay. It generalizes the ad-hoc
// generators that grew inside the schedule, rcp and lpfs test suites;
// those suites now draw from here so every layer fuzzes the same
// distribution. Determinism: identical (rng stream, opts) yield
// identical modules.
func RandomLeaf(rng *rand.Rand, opts GenOptions) *ir.Module {
	nOps, nQubits := opts.ops(), opts.qubits()
	m := ir.NewModule("rand", nil, []ir.Reg{{Name: "q", Size: nQubits}})
	appendRandomOps(rng, m, nOps, nQubits, opts.Wide, opts.Measure)
	return m
}

// appendRandomOps appends nOps random gate operations over the first
// nQubits slots of m. It is the draw loop shared by RandomLeaf and
// RandomProgram's leaf bodies; its rng consumption is part of the seeded
// contract — any change invalidates every recorded corpus digest, so the
// per-case draws below must stay exactly as they are.
func appendRandomOps(rng *rand.Rand, m *ir.Module, nOps, nQubits int, wide, measure bool) {
	// distinct returns n distinct qubit indices.
	distinct := func(n int) []int {
		picked := make([]int, 0, n)
		for len(picked) < n {
			q := rng.Intn(nQubits)
			dup := false
			for _, p := range picked {
				dup = dup || p == q
			}
			if !dup {
				picked = append(picked, q)
			}
		}
		return picked
	}

	for i := 0; i < nOps; i++ {
		// The base mix keeps the historical five-way draw so existing
		// seeds stay meaningful; extensions draw extra cases beyond it.
		ways := 5
		if wide {
			ways += 3
		}
		if measure {
			ways += 2
		}
		c := rng.Intn(ways)
		if c >= 5 && !wide {
			c += 3 // skip the wide cases straight to measurement
		}
		switch c {
		case 0:
			m.Gate(qasm.H, rng.Intn(nQubits))
		case 1:
			ab := distinct(2)
			m.Gate(qasm.CNOT, ab[0], ab[1])
		case 2:
			m.Gate(qasm.T, rng.Intn(nQubits))
		case 3:
			m.Rot(qasm.Rz, rng.Float64()*3, rng.Intn(nQubits))
		case 4:
			ab := distinct(2)
			m.Gate(qasm.CZ, ab[0], ab[1])
		case 5:
			abc := distinct(3)
			m.Gate(qasm.Toffoli, abc[0], abc[1], abc[2])
		case 6:
			abc := distinct(3)
			m.Gate(qasm.Fredkin, abc[0], abc[1], abc[2])
		case 7:
			ab := distinct(2)
			m.Gate(qasm.Swap, ab[0], ab[1])
		case 8:
			m.Gate(qasm.PrepZ, rng.Intn(nQubits))
		default:
			m.Gate(qasm.MeasZ, rng.Intn(nQubits))
		}
	}
}
