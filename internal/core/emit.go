package core

import (
	"fmt"
	"io"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
)

// EmitQASM writes the fully linearized QASM-HL instruction stream of the
// program's entry module: calls are expanded on the fly (hierarchical
// programs never materialize in memory), qubits are named by their slot
// path, and limit bounds the number of emitted instructions (0 means
// 10 million). This is the back end the paper's toolflow targets (§3.1).
func EmitQASM(w io.Writer, p *ir.Program, limit int64) (int64, error) {
	if limit == 0 {
		limit = 10_000_000
	}
	entry := p.EntryModule()
	if entry == nil {
		return 0, fmt.Errorf("core: missing entry module %q", p.Entry)
	}
	if entry.ParamSlots() != 0 {
		return 0, fmt.Errorf("core: entry module %s takes parameters", entry.Name)
	}
	qw := qasm.NewWriter(w)
	names := entry.SlotNames()
	for _, name := range names {
		if err := qw.Declare(name); err != nil {
			return 0, err
		}
	}
	e := &emitter{p: p, w: qw, limit: limit}
	if err := e.module(entry, names); err != nil {
		return e.count, err
	}
	return e.count, qw.Flush()
}

type emitter struct {
	p     *ir.Program
	w     *qasm.Writer
	count int64
	limit int64
	anc   int64
	qs    []string // one gate's operand names, reused
}

func (e *emitter) module(m *ir.Module, names []string) error {
	for i := range m.Ops {
		op := &m.Ops[i]
		for rep := int64(0); rep < op.EffCount(); rep++ {
			switch op.Kind {
			case ir.GateOp:
				if e.count >= e.limit {
					return fmt.Errorf("core: EmitQASM: instruction limit %d exceeded", e.limit)
				}
				e.count++
				e.qs = e.qs[:0]
				for _, a := range op.Args {
					e.qs = append(e.qs, names[a])
				}
				if err := e.w.Inst(op.Gate, op.Angle, e.qs); err != nil {
					return err
				}
			case ir.CallOp:
				callee := e.p.Modules[op.Callee]
				if callee == nil {
					return fmt.Errorf("core: EmitQASM: missing module %q", op.Callee)
				}
				sub := make([]string, 0, callee.TotalSlots())
				for _, r := range op.CallArgs {
					for s := r.Start; s < r.Start+r.Len; s++ {
						sub = append(sub, names[s])
					}
				}
				if start, ok := m.CallLocals(i); ok {
					// A leaf's call runs on the fresh locals flatten
					// gave it, as its inlined body would.
					sub = append(sub, names[start:start+callee.LocalSlots()]...)
				}
				for len(sub) < callee.TotalSlots() {
					// Fresh ancilla names per dynamic instance; the
					// declaration block does not cover them, matching
					// ScaffCC's implicit ancilla pool.
					sub = append(sub, fmt.Sprintf("anc%d", e.anc))
					e.anc++
				}
				if err := e.module(callee, sub); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
