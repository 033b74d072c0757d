package dag

import (
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
)

// GroupKey identifies a SIMD-compatible operation class: a region applies
// one gate type per step, and rotations with distinct angles are distinct
// operations (paper Table 2).
type GroupKey struct {
	Op    qasm.Opcode
	Angle float64
}

// KeyOf returns the group key of op i of module m.
func KeyOf(m *ir.Module, i int32) GroupKey {
	op := &m.Ops[i]
	k := GroupKey{Op: op.Gate}
	if op.Gate.IsRotation() {
		k.Angle = op.Angle
	}
	return k
}

// GroupIDs interns every op's group key into a small dense id, first
// seen first, so schedulers compare and count groups by integer. Two
// ops share an id iff their keys are equal (a NaN angle shares with
// nothing; -0 and +0 are one key); the ids run from 0 to the returned
// count. Plain gates intern by opcode, so only rotations pay for a
// map lookup; the map is sized for every rotation up front, so it is
// never rehashed while it fills. Schedulers read it through
// Graph.Groups, which interns once per graph.
func GroupIDs(m *ir.Module) ([]int32, int) {
	ids := make([]int32, len(m.Ops))
	rots := 0
	for i := range m.Ops {
		if m.Ops[i].Gate.IsRotation() {
			rots++
		}
	}
	var byGate [qasm.NumOpcodes]int32       // 1 + a plain gate's id, 0 = unseen
	byKey := make(map[GroupKey]int32, rots) // rotations
	groups := int32(0)
	for i := range m.Ops {
		op := &m.Ops[i]
		if !op.Gate.IsRotation() {
			if byGate[op.Gate] == 0 {
				groups++
				byGate[op.Gate] = groups
			}
			ids[i] = byGate[op.Gate] - 1
			continue
		}
		k := GroupKey{Op: op.Gate, Angle: op.Angle}
		id, ok := byKey[k]
		if !ok {
			id, groups = groups, groups+1
			byKey[k] = id
		}
		ids[i] = id
	}
	return ids, int(groups)
}
