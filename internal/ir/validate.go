package ir

import (
	"fmt"
	"slices"
)

// Validate checks structural well-formedness of the whole program:
// slot indices in range, gate arities respected, call argument shapes
// matching callee parameter layouts, counts positive, and an acyclic call
// graph reachable from the entry.
func (p *Program) Validate() error {
	if _, err := p.Topo(); err != nil {
		return err
	}
	for _, name := range p.Order {
		if err := p.validateModule(p.Modules[name]); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) validateModule(m *Module) error {
	for i := range m.Ops {
		op := &m.Ops[i]
		if op.Count < 0 {
			return fmt.Errorf("ir: %s op %d: negative count %d", m.Name, i, op.Count)
		}
		switch op.Kind {
		case GateOp:
			if err := m.validateGate(i, op); err != nil {
				return err
			}
		case CallOp:
			if err := p.validateCall(m, i, op); err != nil {
				return err
			}
		default:
			return fmt.Errorf("ir: %s op %d: unknown op kind %d", m.Name, i, op.Kind)
		}
	}
	return nil
}

func (m *Module) validateGate(i int, op *Op) error {
	if !op.Gate.Valid() {
		return fmt.Errorf("ir: %s op %d: invalid opcode %d", m.Name, i, op.Gate)
	}
	if len(op.Args) != op.Gate.Arity() {
		return fmt.Errorf("ir: %s op %d: %s wants %d operands, has %d",
			m.Name, i, op.Gate, op.Gate.Arity(), len(op.Args))
	}
	// Arity is at most three, so a pairwise scan finds repeats without
	// allocating.
	for k, slot := range op.Args {
		if slot < 0 || slot >= m.totalSlots {
			return fmt.Errorf("ir: %s op %d: slot %d out of range [0,%d)",
				m.Name, i, slot, m.totalSlots)
		}
		if slices.Contains(op.Args[:k], slot) {
			// No-cloning: a gate cannot take the same qubit twice.
			return fmt.Errorf("ir: %s op %d: %s repeats operand slot %d",
				m.Name, i, op.Gate, slot)
		}
	}
	return nil
}

func (p *Program) validateCall(m *Module, i int, op *Op) error {
	callee := p.Modules[op.Callee]
	if callee == nil {
		return fmt.Errorf("ir: %s op %d: call to missing module %q", m.Name, i, op.Callee)
	}
	total := 0
	for _, r := range op.CallArgs {
		if r.Len <= 0 || r.Start < 0 || r.Start+r.Len > m.totalSlots {
			return fmt.Errorf("ir: %s op %d: call arg range [%d,%d) out of range [0,%d)",
				m.Name, i, r.Start, r.Start+r.Len, m.totalSlots)
		}
		total += r.Len
	}
	if total != callee.ParamSlots() {
		return fmt.Errorf("ir: %s op %d: call to %s passes %d slots, callee wants %d",
			m.Name, i, op.Callee, total, callee.ParamSlots())
	}
	// No-cloning across call arguments: the concatenated ranges must not
	// alias the same caller slot twice. The first repeat in argument
	// order is the lowest slot of the first range that overlaps an
	// earlier one; a pairwise scan finds it without allocating.
	for j, r := range op.CallArgs {
		alias := -1
		for _, q := range op.CallArgs[:j] {
			if q.Start < r.Start+r.Len && r.Start < q.Start+q.Len {
				if s := max(q.Start, r.Start); alias < 0 || s < alias {
					alias = s
				}
			}
		}
		if alias >= 0 {
			return fmt.Errorf("ir: %s op %d: call to %s aliases slot %d",
				m.Name, i, op.Callee, alias)
		}
	}
	return nil
}
