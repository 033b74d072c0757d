package ir

import (
	"cmp"
	"fmt"
	"slices"
)

// ErrTooLarge is wrapped by materialization errors when expansion would
// exceed the caller's op limit, and by evaluation errors when a count
// saturates (SatAdd, SatMul).
var ErrTooLarge = fmt.Errorf("ir: materialization exceeds op limit")

// leafCall is one call op of a marked leaf: its index in Ops, the first
// of the fresh locals MarkLeaf gave the callee's locals, and the callee.
type leafCall struct {
	op     int
	fresh  int
	callee *Module
}

// extent measures a module's expanded body: ops is its length with
// counts kept, unrolled its length with every Count unrolled, and args
// the operand slots of its ops (counts kept).
type extent struct{ ops, unrolled, args int64 }

// add returns e plus n copies of f, saturating (SatAdd, SatMul).
func (e extent) add(n int64, f extent) extent {
	return extent{
		SatAdd(e.ops, SatMul(n, f.ops)),
		SatAdd(e.unrolled, SatMul(n, f.unrolled)),
		SatAdd(e.args, SatMul(n, f.args)),
	}
}

// extent returns the extent of m's expanded body. A marked leaf's was
// fixed when it was marked; any other body is its own ops, calls
// counting as one op per repetition.
func (m *Module) extent() extent {
	if m.leaf {
		return m.ext
	}
	var e extent
	for i := range m.Ops {
		e = e.add(1, extent{1, m.Ops[i].EffCount(), int64(len(m.Ops[i].Args))})
	}
	return e
}

// MarkLeaf makes m a leaf without copying a callee body (paper §3.1.1:
// a module under FTh becomes a leaf). Every callee must be a leaf
// already. Calls stay in place, and each call's callee locals become
// fresh locals of m, named "<callee>.<op index>.<local>", in call order:
// the layout inlining every call would give m. Materialize and
// MaterializedSize then see m as that inlined body; Fingerprint hashes
// its calls by their callees' digests instead (a Merkle digest).
func (p *Program) MarkLeaf(m *Module) error {
	if m.leaf {
		return nil
	}
	var calls []leafCall
	var e extent
	for i := range m.Ops {
		op := &m.Ops[i]
		reps := op.EffCount()
		if op.Kind != CallOp {
			e = e.add(1, extent{1, reps, int64(len(op.Args))})
			continue
		}
		callee := p.Modules[op.Callee]
		slots := 0
		for _, r := range op.CallArgs {
			slots += r.Len
		}
		if callee == nil || !callee.IsLeaf() || slots != callee.ParamSlots() {
			return fmt.Errorf("ir: MarkLeaf: %s op %d: %q is not a leaf taking %d slots", m.Name, i, op.Callee, slots)
		}
		calls = append(calls, leafCall{op: i, fresh: m.totalSlots, callee: callee})
		for _, l := range callee.Locals {
			m.AddLocal(fmt.Sprintf("%s.%d.%s", callee.Name, i, l.Name), l.Size)
		}
		e = e.add(reps, callee.extent())
	}
	m.leaf, m.calls, m.ext = true, calls, e
	return nil
}

// CallLocals returns the first slot of the fresh locals MarkLeaf gave
// call op i of a marked leaf: the callee's local slot s binds to caller
// slot start + s - callee.ParamSlots(). It reports false for any other
// op or module.
func (m *Module) CallLocals(i int) (start int, ok bool) {
	k, ok := slices.BinarySearchFunc(m.calls, i, func(c leafCall, i int) int { return cmp.Compare(c.op, i) })
	if !ok {
		return 0, false
	}
	return m.calls[k].fresh, true
}

// expand visits m's expanded body in order: m's ops, except that each
// call of a marked leaf is replaced, EffCount times, by its callee's
// expanded body. slots maps the slots of the ops visited into the slot
// space of the module expansion started from (nil: they are its own);
// scratch holds the maps of the calls being expanded.
func (m *Module) expand(slots []int, scratch *[]int, visit func(op *Op, slots []int)) {
	calls := m.calls
	for i := range m.Ops {
		op := &m.Ops[i]
		if !m.leaf || op.Kind != CallOp {
			visit(op, slots)
			continue
		}
		c := calls[0]
		calls = calls[1:]
		base := len(*scratch)
		for _, r := range op.CallArgs {
			for s := r.Start; s < r.Start+r.Len; s++ {
				*scratch = append(*scratch, slotAt(slots, s))
			}
		}
		for s := c.fresh; s < c.fresh+c.callee.LocalSlots(); s++ {
			*scratch = append(*scratch, slotAt(slots, s))
		}
		// Nested expansions append past sub and truncate back to it, so
		// sub stays intact (in the old array if append moved it).
		sub := (*scratch)[base:]
		for r := op.EffCount(); r > 0; r-- {
			c.callee.expand(sub, scratch, visit)
		}
		*scratch = (*scratch)[:base]
	}
}

func slotAt(slots []int, s int) int {
	if slots == nil {
		return s
	}
	return slots[s]
}

// MaterializedSize returns the number of ops the module body expands to
// once Count multipliers are unrolled (a marked leaf's calls expand;
// any other call counts as one op per repetition).
func (m *Module) MaterializedSize() int64 { return m.extent().unrolled }

// IsMaterialized reports whether the module's expanded body repeats no
// op (every EffCount is 1), so that Materialize only expands its calls.
func (m *Module) IsMaterialized() bool {
	e := m.extent()
	return e.ops == e.unrolled
}

// Materialize returns a copy of the module with its expanded body (see
// MarkLeaf) and every Count > 1 operation replicated into Count
// consecutive ops, built in one pass into an exactly sized body whose
// operand lists are windows of one slab. Copies of one repeated op share
// its operand window. limit bounds the resulting body size; it returns
// an error wrapping ErrTooLarge when exceeded.
func (m *Module) Materialize(limit int64) (*Module, error) {
	e := m.extent()
	if limit > 0 && e.unrolled > limit {
		return nil, fmt.Errorf("%w: module %s needs %d ops, limit %d", ErrTooLarge, m.Name, e.unrolled, limit)
	}
	out := &Module{
		Name:       m.Name,
		Params:     append([]Reg(nil), m.Params...),
		Locals:     append([]Reg(nil), m.Locals...),
		Ops:        make([]Op, 0, e.unrolled),
		paramSlots: m.paramSlots,
		totalSlots: m.totalSlots,
	}
	slab := make([]int, e.args)
	var scratch []int
	m.expand(nil, &scratch, func(op *Op, slots []int) {
		unit := *op
		unit.Count = 1
		unit.Args = nil
		if n := len(op.Args); n > 0 {
			unit.Args = slab[:n:n]
			slab = slab[n:]
			for k, s := range op.Args {
				unit.Args[k] = slotAt(slots, s)
			}
		}
		unit.CallArgs = append([]Range(nil), op.CallArgs...)
		for r := op.EffCount(); r > 0; r-- {
			out.Ops = append(out.Ops, unit)
		}
	})
	return out, nil
}
