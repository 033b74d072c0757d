package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

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
	bw := bufio.NewWriter(w)
	for s := 0; s < entry.TotalSlots(); s++ {
		if _, err := fmt.Fprintf(bw, "qubit %s\n", entry.SlotName(s)); err != nil {
			return 0, err
		}
	}
	names := make([]string, entry.TotalSlots())
	for s := range names {
		names[s] = entry.SlotName(s)
	}
	e := &emitter{p: p, w: bw, limit: limit}
	if err := e.module(entry, names); err != nil {
		return e.count, err
	}
	return e.count, bw.Flush()
}

type emitter struct {
	p     *ir.Program
	w     *bufio.Writer
	count int64
	limit int64
	anc   int64
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
				if _, err := e.w.WriteString(op.Gate.String()); err != nil {
					return err
				}
				e.w.WriteByte('(')
				for j, s := range op.Args {
					if j > 0 {
						e.w.WriteByte(',')
					}
					e.w.WriteString(names[s])
				}
				if op.Gate.IsRotation() {
					e.w.WriteByte(',')
					e.w.WriteString(strconv.FormatFloat(op.Angle, 'g', -1, 64))
				}
				e.w.WriteString(")\n")
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

// ParseQASM reads back a flat QASM-HL stream as a single-module leaf
// program, the inverse of EmitQASM for fully flattened output. Useful
// for feeding externally produced circuits to the schedulers.
func ParseQASM(r io.Reader) (*ir.Program, error) {
	decl, insts, err := qasm.Parse(r)
	if err != nil {
		return nil, err
	}
	slots := map[string]int{}
	for _, name := range decl {
		if _, dup := slots[name]; dup {
			return nil, fmt.Errorf("core: ParseQASM: duplicate qubit %q", name)
		}
		slots[name] = len(slots)
	}
	m := ir.NewModule("main", nil, nil)
	for _, name := range decl {
		m.AddLocal(name, 1)
	}
	for _, in := range insts {
		args := make([]int, len(in.Qubits))
		for i, q := range in.Qubits {
			s, ok := slots[q]
			if !ok {
				// Implicit ancilla declaration.
				s = len(slots)
				slots[q] = s
				m.AddLocal(q, 1)
			}
			args[i] = s
		}
		m.Ops = append(m.Ops, ir.Op{Kind: ir.GateOp, Gate: in.Op, Angle: in.Angle, Args: args, Count: 1})
	}
	p := ir.NewProgram("main")
	p.Add(m)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
