// Package sim is a dense state-vector quantum simulator over the
// toolflow's gate vocabulary. It exists to verify semantics, not to run
// benchmarks: gate decompositions, scheduled circuits and reversible
// arithmetic are checked against it up to ~20 qubits.
//
// Qubit q is bit q of the basis index (little-endian).
package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
)

// MaxQubits bounds simulator size (2^24 amplitudes ≈ 256 MiB).
const MaxQubits = 24

// State is a normalized quantum state over n qubits.
type State struct {
	n   int
	amp []complex128
}

// NewState returns |0...0> over n qubits.
func NewState(n int) (*State, error) {
	if n < 1 || n > MaxQubits {
		return nil, fmt.Errorf("sim: qubit count %d out of range [1,%d]", n, MaxQubits)
	}
	s := &State{n: n, amp: make([]complex128, 1<<uint(n))}
	s.amp[0] = 1
	return s, nil
}

// NewBasisState returns |bits> where bit q of bits sets qubit q.
func NewBasisState(n int, bits uint64) (*State, error) {
	s, err := NewState(n)
	if err != nil {
		return nil, err
	}
	if bits >= 1<<uint(n) {
		return nil, fmt.Errorf("sim: basis index %d out of range for %d qubits", bits, n)
	}
	s.amp[0] = 0
	s.amp[bits] = 1
	return s, nil
}

// NewRandomState returns a Haar-ish random normalized state drawn from
// rng (Gaussian components, normalized).
func NewRandomState(n int, rng *rand.Rand) (*State, error) {
	s, err := NewState(n)
	if err != nil {
		return nil, err
	}
	var norm float64
	for i := range s.amp {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		s.amp[i] = complex(re, im)
		norm += re*re + im*im
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for i := range s.amp {
		s.amp[i] *= scale
	}
	return s, nil
}

// N returns the qubit count.
func (s *State) N() int { return s.n }

// Amplitude returns the amplitude of basis state i.
func (s *State) Amplitude(i uint64) complex128 { return s.amp[i] }

// Clone deep-copies the state.
func (s *State) Clone() *State {
	return &State{n: s.n, amp: append([]complex128(nil), s.amp...)}
}

// single-qubit matrices
var (
	invSqrt2 = complex(1/math.Sqrt2, 0)
	matX     = [2][2]complex128{{0, 1}, {1, 0}}
	matY     = [2][2]complex128{{0, -1i}, {1i, 0}}
	matZ     = [2][2]complex128{{1, 0}, {0, -1}}
	matH     = [2][2]complex128{{invSqrt2, invSqrt2}, {invSqrt2, -invSqrt2}}
	matS     = [2][2]complex128{{1, 0}, {0, 1i}}
	matSdag  = [2][2]complex128{{1, 0}, {0, -1i}}
	matT     = [2][2]complex128{{1, 0}, {0, cmplx.Exp(complex(0, math.Pi/4))}}
	matTdag  = [2][2]complex128{{1, 0}, {0, cmplx.Exp(complex(0, -math.Pi/4))}}
)

func matRz(theta float64) [2][2]complex128 {
	return [2][2]complex128{
		{cmplx.Exp(complex(0, -theta/2)), 0},
		{0, cmplx.Exp(complex(0, theta/2))},
	}
}

func matRx(theta float64) [2][2]complex128 {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return [2][2]complex128{{c, s}, {s, c}}
}

func matRy(theta float64) [2][2]complex128 {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return [2][2]complex128{{c, -s}, {s, c}}
}

// apply1 applies a 2x2 matrix to qubit q.
func (s *State) apply1(m [2][2]complex128, q int) {
	bit := uint64(1) << uint(q)
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&bit != 0 {
			continue
		}
		a0, a1 := s.amp[i], s.amp[i|bit]
		s.amp[i] = m[0][0]*a0 + m[0][1]*a1
		s.amp[i|bit] = m[1][0]*a0 + m[1][1]*a1
	}
}

// applyControlled1 applies m to target when all control bits are 1.
func (s *State) applyControlled1(m [2][2]complex128, target int, controls ...int) {
	bit := uint64(1) << uint(target)
	var cmask uint64
	for _, c := range controls {
		cmask |= 1 << uint(c)
	}
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&bit != 0 || i&cmask != cmask {
			continue
		}
		a0, a1 := s.amp[i], s.amp[i|bit]
		s.amp[i] = m[0][0]*a0 + m[0][1]*a1
		s.amp[i|bit] = m[1][0]*a0 + m[1][1]*a1
	}
}

func (s *State) swap(a, b int) {
	ba, bb := uint64(1)<<uint(a), uint64(1)<<uint(b)
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&ba != 0 || i&bb == 0 {
			continue
		}
		j := (i | ba) &^ bb
		s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
	}
}

// Apply applies one gate. Operands must be distinct and in range.
func (s *State) Apply(op qasm.Opcode, angle float64, qs ...int) error {
	if len(qs) != op.Arity() {
		return fmt.Errorf("sim: %s wants %d operands, got %d", op, op.Arity(), len(qs))
	}
	seen := 0
	for _, q := range qs {
		if q < 0 || q >= s.n {
			return fmt.Errorf("sim: qubit %d out of range [0,%d)", q, s.n)
		}
		if seen&(1<<uint(q)) != 0 {
			return fmt.Errorf("sim: %s repeats qubit %d", op, q)
		}
		seen |= 1 << uint(q)
	}
	switch op {
	case qasm.X:
		s.apply1(matX, qs[0])
	case qasm.Y:
		s.apply1(matY, qs[0])
	case qasm.Z:
		s.apply1(matZ, qs[0])
	case qasm.H:
		s.apply1(matH, qs[0])
	case qasm.S:
		s.apply1(matS, qs[0])
	case qasm.Sdag:
		s.apply1(matSdag, qs[0])
	case qasm.T:
		s.apply1(matT, qs[0])
	case qasm.Tdag:
		s.apply1(matTdag, qs[0])
	case qasm.Rx:
		s.apply1(matRx(angle), qs[0])
	case qasm.Ry:
		s.apply1(matRy(angle), qs[0])
	case qasm.Rz:
		s.apply1(matRz(angle), qs[0])
	case qasm.CNOT:
		s.applyControlled1(matX, qs[1], qs[0])
	case qasm.CZ:
		s.applyControlled1(matZ, qs[1], qs[0])
	case qasm.CRz:
		s.applyControlled1(matRz(angle), qs[1], qs[0])
	case qasm.Swap:
		s.swap(qs[0], qs[1])
	case qasm.Toffoli:
		s.applyControlled1(matX, qs[2], qs[0], qs[1])
	case qasm.Fredkin:
		// controlled swap of qs[1], qs[2] on control qs[0]
		s.applyControlled1(matX, qs[1], qs[0], qs[2])
		s.applyControlled1(matX, qs[2], qs[0], qs[1])
		s.applyControlled1(matX, qs[1], qs[0], qs[2])
	case qasm.PrepZ:
		return s.Reset(qs[0])
	case qasm.MeasZ:
		// Non-destructive in this simulator: collapse to the more
		// probable outcome deterministically (ties pick 0). Tests avoid
		// measuring entangled registers they keep using.
		p0 := s.Prob0(qs[0])
		out := 0
		if p0 < 0.5 {
			out = 1
		}
		return s.Collapse(qs[0], out)
	default:
		return fmt.Errorf("sim: unsupported opcode %s", op)
	}
	return nil
}

// Prob0 returns the probability of measuring qubit q as 0.
func (s *State) Prob0(q int) float64 {
	bit := uint64(1) << uint(q)
	var p float64
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&bit == 0 {
			re, im := real(s.amp[i]), imag(s.amp[i])
			p += re*re + im*im
		}
	}
	return p
}

// Collapse projects qubit q onto the given outcome and renormalizes.
func (s *State) Collapse(q, outcome int) error {
	bit := uint64(1) << uint(q)
	var norm float64
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		keep := (i&bit != 0) == (outcome == 1)
		if keep {
			re, im := real(s.amp[i]), imag(s.amp[i])
			norm += re*re + im*im
		} else {
			s.amp[i] = 0
		}
	}
	if norm < 1e-15 {
		return fmt.Errorf("sim: collapse of qubit %d to %d has zero probability", q, outcome)
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for i := range s.amp {
		s.amp[i] *= scale
	}
	return nil
}

// Reset forces qubit q to |0> (measure; X-correct if 1).
func (s *State) Reset(q int) error {
	p0 := s.Prob0(q)
	if p0 >= 0.5 {
		return s.Collapse(q, 0)
	}
	if err := s.Collapse(q, 1); err != nil {
		return err
	}
	s.apply1(matX, q)
	return nil
}

// RunModule applies every gate op of a materialized leaf module in order.
func (s *State) RunModule(m *ir.Module) error {
	if m.TotalSlots() > s.n {
		return fmt.Errorf("sim: module %s needs %d qubits, state has %d", m.Name, m.TotalSlots(), s.n)
	}
	for i := range m.Ops {
		op := &m.Ops[i]
		if op.Kind != ir.GateOp {
			return fmt.Errorf("sim: module %s op %d is a call; flatten first", m.Name, i)
		}
		for r := int64(0); r < op.EffCount(); r++ {
			if err := s.Apply(op.Gate, op.Angle, op.Args...); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunProgram applies a whole program by inlining calls on the fly.
func (s *State) RunProgram(p *ir.Program) error {
	entry := p.EntryModule()
	if entry == nil {
		return fmt.Errorf("sim: missing entry module %q", p.Entry)
	}
	if entry.ParamSlots() != 0 {
		return fmt.Errorf("sim: entry module %s takes parameters", entry.Name)
	}
	base := make([]int, entry.TotalSlots())
	live := make(map[int]bool, len(base))
	for i := range base {
		base[i] = i
		live[i] = true
	}
	return s.runModuleMapped(p, entry, base, live)
}

// runModuleMapped executes module m with its slots bound to simulator
// qubits via slotMap. live tracks every simulator qubit holding state in
// any active frame; callee ancillae are allocated outside it and released
// after the call (reversible modules return ancillae clean).
func (s *State) runModuleMapped(p *ir.Program, m *ir.Module, slotMap []int, live map[int]bool) error {
	if m.TotalSlots() > len(slotMap) {
		return fmt.Errorf("sim: slot map too small for module %s", m.Name)
	}
	for i := range m.Ops {
		op := &m.Ops[i]
		for rep := int64(0); rep < op.EffCount(); rep++ {
			switch op.Kind {
			case ir.GateOp:
				qs := make([]int, len(op.Args))
				for j, a := range op.Args {
					qs[j] = slotMap[a]
				}
				if err := s.Apply(op.Gate, op.Angle, qs...); err != nil {
					return err
				}
			case ir.CallOp:
				callee := p.Modules[op.Callee]
				if callee == nil {
					return fmt.Errorf("sim: missing module %q", op.Callee)
				}
				sub := make([]int, 0, callee.TotalSlots())
				for _, r := range op.CallArgs {
					for q := r.Start; q < r.Start+r.Len; q++ {
						sub = append(sub, slotMap[q])
					}
				}
				if start, ok := m.CallLocals(i); ok {
					// A leaf's call runs on the fresh locals flatten
					// gave it.
					sub = append(sub, slotMap[start:start+callee.LocalSlots()]...)
				}
				// Callee locals need fresh simulator qubits; allocate
				// from the tail of the state if available.
				var anc []int
				for q := 0; len(sub) < callee.TotalSlots(); q++ {
					if q >= s.n {
						return fmt.Errorf("sim: out of ancilla qubits for %s", callee.Name)
					}
					if !live[q] {
						sub = append(sub, q)
						anc = append(anc, q)
						live[q] = true
					}
				}
				err := s.runModuleMapped(p, callee, sub, live)
				for _, q := range anc {
					delete(live, q)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// EqualUpToPhase reports whether two states are equal up to a global
// phase within tolerance.
func EqualUpToPhase(a, b *State, tol float64) bool {
	if a.n != b.n {
		return false
	}
	// Find the reference amplitude.
	ref := -1
	var best float64
	for i := range a.amp {
		m := cmplx.Abs(a.amp[i])
		if m > best {
			best = m
			ref = i
		}
	}
	if ref < 0 || best < 1e-12 {
		return false
	}
	phase := b.amp[ref] / a.amp[ref]
	if math.Abs(cmplx.Abs(phase)-1) > tol {
		return false
	}
	for i := range a.amp {
		if cmplx.Abs(a.amp[i]*phase-b.amp[i]) > tol {
			return false
		}
	}
	return true
}

// Fidelity returns |<a|b>|^2.
func Fidelity(a, b *State) (float64, error) {
	if a.n != b.n {
		return 0, fmt.Errorf("sim: fidelity of %d- and %d-qubit states", a.n, b.n)
	}
	var dot complex128
	for i := range a.amp {
		dot += cmplx.Conj(a.amp[i]) * b.amp[i]
	}
	m := cmplx.Abs(dot)
	return m * m, nil
}
