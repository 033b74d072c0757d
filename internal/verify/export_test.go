package verify

import (
	"fmt"
	"strings"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
)

// QASM renders a leaf module as a flat QASM-HL stream (declaration block
// plus one instruction per line) — the text the toolflow's back end
// emits. Fuzz corpora for the QASM reader seed from this.
func QASM(m *ir.Module) (string, error) {
	decl := make([]string, m.TotalSlots())
	for s := range decl {
		decl[s] = m.SlotName(s)
	}
	insts := make([]qasm.Inst, 0, len(m.Ops))
	for i := range m.Ops {
		op := &m.Ops[i]
		if op.Kind != ir.GateOp {
			return "", fmt.Errorf("verify: module %s op %d is a call, not QASM-HL", m.Name, i)
		}
		qs := make([]string, len(op.Args))
		for j, s := range op.Args {
			qs[j] = m.SlotName(s)
		}
		insts = append(insts, qasm.Inst{Op: op.Gate, Angle: op.Angle, Qubits: qs})
	}
	var sb strings.Builder
	if err := qasm.Write(&sb, decl, insts); err != nil {
		return "", err
	}
	return sb.String(), nil
}
