// Package decompose lowers the wide-gate vocabulary (Toffoli, Fredkin,
// Swap, arbitrary-angle rotations, controlled rotations) into the
// primitive QASM target set (paper §3.1).
//
// Toffoli/Fredkin/Swap expand inline into the standard Clifford+T
// circuits. Arbitrary rotations go through the SQCT substitute (see
// rotation.go): each distinct angle becomes a dedicated leaf module
// holding its serial Clifford+T approximation sequence, and the rotation
// op becomes a call to that module. Keeping rotations as blackboxes is
// exactly what the paper does for Shor's (§5.4) and is what makes its
// schedule k-sensitive: decomposed rotations on distinct qubits can only
// parallelize across distinct SIMD regions.
package decompose

import (
	"math"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
)

// Options configures decomposition.
type Options struct {
	// Epsilon is the target approximation accuracy of rotation
	// decomposition. Zero defaults to 1e-10.
	Epsilon float64
}

func (o Options) epsilon() float64 {
	if o.Epsilon == 0 {
		return 1e-10
	}
	return o.Epsilon
}

// Program decomposes every module of the program in place, adding
// per-angle rotation modules as needed. It returns the number of
// rotation modules created.
func Program(p *ir.Program, opts Options) (int, error) {
	rotMods := map[string]bool{}
	names, err := p.Topo()
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		if rotMods[name] {
			continue
		}
		if err := decomposeModule(p, p.Modules[name], opts, rotMods); err != nil {
			return 0, err
		}
	}
	return len(rotMods), nil
}

func decomposeModule(p *ir.Program, m *ir.Module, opts Options, rotMods map[string]bool) error {
	out := make([]ir.Op, 0, len(m.Ops))
	emit := func(op qasm.Opcode, args ...int) {
		out = append(out, ir.Op{Kind: ir.GateOp, Gate: op, Args: args, Count: 1})
	}
	for i := range m.Ops {
		op := m.Ops[i]
		if op.Kind != ir.GateOp {
			out = append(out, op)
			continue
		}
		mark := len(out)
		switch op.Gate {
		case qasm.Toffoli:
			emitToffoli(emit, op.Args[0], op.Args[1], op.Args[2])
		case qasm.Fredkin:
			// Fredkin(c, a, b) = CNOT(b,a) · Toffoli(c,a,b) · CNOT(b,a).
			emit(qasm.CNOT, op.Args[2], op.Args[1])
			emitToffoli(emit, op.Args[0], op.Args[1], op.Args[2])
			emit(qasm.CNOT, op.Args[2], op.Args[1])
		case qasm.Swap:
			emit(qasm.CNOT, op.Args[0], op.Args[1])
			emit(qasm.CNOT, op.Args[1], op.Args[0])
			emit(qasm.CNOT, op.Args[0], op.Args[1])
		case qasm.Rx:
			// Rx(θ) = H · Rz(θ) · H.
			emit(qasm.H, op.Args[0])
			if err := emitRz(p, &out, m, op.Args[0], op.Angle, opts, rotMods); err != nil {
				return err
			}
			emit(qasm.H, op.Args[0])
		case qasm.Ry:
			// Ry(θ) = S† · H · Rz(θ) · H · S (up to global phase).
			emit(qasm.Sdag, op.Args[0])
			emit(qasm.H, op.Args[0])
			if err := emitRz(p, &out, m, op.Args[0], op.Angle, opts, rotMods); err != nil {
				return err
			}
			emit(qasm.H, op.Args[0])
			emit(qasm.S, op.Args[0])
		case qasm.Rz:
			if err := emitRz(p, &out, m, op.Args[0], op.Angle, opts, rotMods); err != nil {
				return err
			}
		case qasm.CRz:
			// CRz(c,t,θ) = Rz(t,θ/2) · CNOT(c,t) · Rz(t,−θ/2) · CNOT(c,t).
			if err := emitRz(p, &out, m, op.Args[1], op.Angle/2, opts, rotMods); err != nil {
				return err
			}
			emit(qasm.CNOT, op.Args[0], op.Args[1])
			if err := emitRz(p, &out, m, op.Args[1], -op.Angle/2, opts, rotMods); err != nil {
				return err
			}
			emit(qasm.CNOT, op.Args[0], op.Args[1])
		default:
			out = append(out, op)
			continue
		}
		// A repeated wide gate replicates its expansion.
		if reps := op.EffCount(); reps > 1 {
			body := append([]ir.Op(nil), out[mark:]...)
			for r := int64(1); r < reps; r++ {
				out = append(out, body...)
			}
		}
	}
	m.Ops = out
	return nil
}

// emitToffoli writes the standard 15-gate Clifford+T Toffoli
// (Nielsen & Chuang Fig. 4.9) with control qubits a, b and target c.
func emitToffoli(emit func(op qasm.Opcode, args ...int), a, b, c int) {
	emit(qasm.H, c)
	emit(qasm.CNOT, b, c)
	emit(qasm.Tdag, c)
	emit(qasm.CNOT, a, c)
	emit(qasm.T, c)
	emit(qasm.CNOT, b, c)
	emit(qasm.Tdag, c)
	emit(qasm.CNOT, a, c)
	emit(qasm.T, b)
	emit(qasm.T, c)
	emit(qasm.H, c)
	emit(qasm.CNOT, a, b)
	emit(qasm.T, a)
	emit(qasm.Tdag, b)
	emit(qasm.CNOT, a, b)
}

// emitRz lowers one Rz application: exact Clifford+T gates when the angle
// is a multiple of π/4, otherwise the SQCT-substitute sequence: inline
// when it is at most four gates, else as a call to a shared per-angle
// module. A repeated angle finds its module and is not approximated
// again.
func emitRz(p *ir.Program, out *[]ir.Op, m *ir.Module, target int, angle float64, opts Options, rotMods map[string]bool) error {
	seq := exactSequence(angle)
	var name string
	if seq == nil {
		// nil stays nil when the angle's module exists already.
		name = rotationModuleName(angle, opts.epsilon())
		if p.Module(name) == nil {
			seq = ApproxSequence(angle, opts.epsilon())
		}
	}
	if seq != nil && len(seq) <= 4 {
		for _, g := range seq {
			*out = append(*out, ir.Op{Kind: ir.GateOp, Gate: g, Args: []int{target}, Count: 1})
		}
		return nil // an empty sequence is the identity rotation
	}
	if seq != nil {
		// Every gate acts on the module's one qubit, slot 0: the body and
		// all its operand lists are two exactly sized allocations.
		rm := ir.NewModule(name, []ir.Reg{{Name: "q", Size: 1}}, nil)
		rm.Ops = make([]ir.Op, len(seq))
		slot := make([]int, len(seq))
		for i, g := range seq {
			rm.Ops[i] = ir.Op{Kind: ir.GateOp, Gate: g, Args: slot[i : i+1 : i+1], Count: 1}
		}
		p.Add(rm)
	}
	rotMods[name] = true
	*out = append(*out, ir.Op{
		Kind:     ir.CallOp,
		Callee:   name,
		CallArgs: []ir.Range{{Start: target, Len: 1}},
		Count:    1,
	})
	return nil
}

// exactSequence returns the exact Clifford+T sequence for angles that are
// multiples of π/4 (mod 2π), or nil when the angle needs approximation.
func exactSequence(angle float64) []qasm.Opcode {
	const quantum = math.Pi / 4
	k := angle / quantum
	r := math.Round(k)
	if math.Abs(k-r) > 1e-12 {
		return nil
	}
	steps := ((int64(r) % 8) + 8) % 8 // Rz(π/4)^steps up to phase
	switch steps {
	case 0:
		return []qasm.Opcode{}
	case 1:
		return []qasm.Opcode{qasm.T}
	case 2:
		return []qasm.Opcode{qasm.S}
	case 3:
		return []qasm.Opcode{qasm.S, qasm.T}
	case 4:
		return []qasm.Opcode{qasm.Z}
	case 5:
		return []qasm.Opcode{qasm.Z, qasm.T}
	case 6:
		return []qasm.Opcode{qasm.Sdag}
	default: // 7
		return []qasm.Opcode{qasm.Tdag}
	}
}
