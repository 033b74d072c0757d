package decompose

import (
	"math"

	"github.com/scaffold-go/multisimd/internal/qasm"
)

// ApproxSequence is the SQCT substitute (see DESIGN.md, substitutions):
// it produces a deterministic serial Clifford+T sequence standing in for
// the Kliuchnikov–Maslov–Mosca single-qubit circuit toolkit the paper
// uses. The sequence length follows the optimal ancilla-free asymptotic
// of ~3.02·log2(1/ε) T gates interleaved with H (Ross–Selinger), and the
// gate pattern is derived from the angle's bits via a splitmix64 stream,
// so equal angles always produce identical sequences.
//
// The schedulers only depend on rotations decomposing into long serial
// single-qubit chains with the right length distribution; the substitute
// preserves exactly that property. The emitted sequence is NOT claimed to
// approximate the target unitary (the real SQCT/gridsynth number theory
// is out of scope); exact multiples of π/4 never reach this path.
func ApproxSequence(angle float64, epsilon float64) []qasm.Opcode {
	if epsilon <= 0 || epsilon >= 1 {
		epsilon = 1e-10
	}
	// Canonicalize the angle to [0, 2π) so physically equal rotations
	// share a sequence (and a rotation module).
	angle = canonicalAngle(angle)
	tCount := int(math.Ceil(3.02 * math.Log2(1/epsilon)))
	if tCount < 1 {
		tCount = 1
	}
	rng := splitmix64(math.Float64bits(angle) ^ math.Float64bits(epsilon))
	// H-T skeleton: alternate basis changes and T/T† phases, with
	// occasional S/X corrections, mirroring the shape of real gridsynth
	// output (an <H,T> word with Clifford suffix).
	seq := make([]qasm.Opcode, 0, 2*tCount+3)
	for i := 0; i < tCount; i++ {
		bits := rng()
		if bits&1 == 0 {
			seq = append(seq, qasm.T)
		} else {
			seq = append(seq, qasm.Tdag)
		}
		switch (bits >> 1) & 7 {
		case 0:
			seq = append(seq, qasm.H, qasm.S)
		case 1:
			seq = append(seq, qasm.H, qasm.Sdag)
		default:
			seq = append(seq, qasm.H)
		}
	}
	switch rng() & 3 {
	case 0:
		seq = append(seq, qasm.X)
	case 1:
		seq = append(seq, qasm.Z)
	case 2:
		seq = append(seq, qasm.S)
	}
	return seq
}

// ApproxLength returns the length of the sequence ApproxSequence would
// emit, without building it. Used by resource estimation.
func ApproxLength(epsilon float64) int {
	if epsilon <= 0 || epsilon >= 1 {
		epsilon = 1e-10
	}
	tCount := int(math.Ceil(3.02 * math.Log2(1/epsilon)))
	if tCount < 1 {
		tCount = 1
	}
	return 2 * tCount // skeleton average; exact length varies by ±tCount
}

func canonicalAngle(angle float64) float64 {
	twoPi := 2 * math.Pi
	a := math.Mod(angle, twoPi)
	if a < 0 {
		a += twoPi
	}
	// Quantize to a 2^-40 grid so angles equal up to floating-point
	// wrap-around error share a canonical value (and thus a rotation
	// module); the grid is far below any decomposition epsilon.
	a = math.Round(a*(1<<40)) / (1 << 40)
	if a >= twoPi {
		a = 0
	}
	return a
}

// rotationModuleName builds the canonical per-angle module name, "rz_"
// and 16 hex digits, in the one allocation of its string: every
// rotation op pays it.
func rotationModuleName(angle, epsilon float64) string {
	x := math.Float64bits(canonicalAngle(angle)) ^ splitmix64(math.Float64bits(epsilon))()
	name := [19]byte{'r', 'z', '_'}
	for i := len(name) - 1; i >= 3; i-- {
		name[i] = "0123456789abcdef"[x&15]
		x >>= 4
	}
	return string(name[:])
}

// splitmix64 returns a deterministic 64-bit PRNG stream seeded by seed.
func splitmix64(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}
