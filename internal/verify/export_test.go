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
	var sb strings.Builder
	qw := qasm.NewWriter(&sb)
	for s := 0; s < m.TotalSlots(); s++ {
		qw.Declare(m.SlotName(s))
	}
	for i := range m.Ops {
		op := &m.Ops[i]
		if op.Kind != ir.GateOp {
			return "", fmt.Errorf("verify: module %s op %d is a call, not QASM-HL", m.Name, i)
		}
		qs := make([]string, len(op.Args))
		for j, s := range op.Args {
			qs[j] = m.SlotName(s)
		}
		qw.Inst(op.Gate, op.Angle, qs)
	}
	if err := qw.Flush(); err != nil {
		return "", err
	}
	return sb.String(), nil
}
