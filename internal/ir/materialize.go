package ir

import "fmt"

// ErrTooLarge is wrapped by materialization errors when expansion would
// exceed the caller's op limit.
var ErrTooLarge = fmt.Errorf("ir: materialization exceeds op limit")

// MaterializedSize returns the number of ops the module body expands to
// once Count multipliers are unrolled (calls count as one op per
// repetition).
func (m *Module) MaterializedSize() int64 {
	var n int64
	for i := range m.Ops {
		n += m.Ops[i].EffCount()
	}
	return n
}

// Materialize returns a copy of the module with every Count > 1 operation
// replicated into Count consecutive ops. limit bounds the resulting body
// size; it returns an error wrapping ErrTooLarge when exceeded.
func (m *Module) Materialize(limit int64) (*Module, error) {
	need := m.MaterializedSize()
	if limit > 0 && need > limit {
		return nil, fmt.Errorf("%w: module %s needs %d ops, limit %d", ErrTooLarge, m.Name, need, limit)
	}
	out := m.Clone()
	out.Ops = make([]Op, 0, need)
	for i := range m.Ops {
		op := m.Ops[i]
		n := op.EffCount()
		unit := op
		unit.Count = 1
		unit.Args = append([]int(nil), op.Args...)
		unit.CallArgs = append([]Range(nil), op.CallArgs...)
		for r := int64(0); r < n; r++ {
			out.Ops = append(out.Ops, unit)
		}
	}
	return out, nil
}

// ExpandCall appends the expansion of call op `call` (owned by caller)
// to dst and returns the extended slice: the callee's body remapped
// through the call's argument ranges, with callee locals added as fresh
// caller locals named with the given tag, replicated Count times. The
// callee module itself is not modified.
func (p *Program) ExpandCall(dst []Op, caller *Module, call *Op, tag int) ([]Op, error) {
	callee := p.Modules[call.Callee]
	if callee == nil {
		return dst, fmt.Errorf("ir: ExpandCall: missing module %q", call.Callee)
	}
	// Build the slot map: callee slot -> caller slot.
	slotMap := make([]int, callee.TotalSlots())
	n := 0
	for _, r := range call.CallArgs {
		for s := r.Start; s < r.Start+r.Len; s++ {
			slotMap[n] = s
			n++
		}
	}
	if n != callee.ParamSlots() {
		return dst, fmt.Errorf("ir: ExpandCall: %s->%s arg slots %d != params %d",
			caller.Name, call.Callee, n, callee.ParamSlots())
	}
	// Callee locals become fresh caller locals (ancilla are reusable
	// across inlined bodies in principle, but fresh locals keep the
	// transformation simple and correct; the resource estimator models
	// reuse separately).
	for _, l := range callee.Locals {
		r := caller.AddLocal(fmt.Sprintf("%s.%d.%s", callee.Name, tag, l.Name), l.Size)
		for s := 0; s < l.Size; s++ {
			slotMap[n] = r.Start + s
			n++
		}
	}

	// Every clone's Args is a window of one slab. Each window's capacity
	// is clipped to its length, so appending to one op's Args reallocates
	// instead of overwriting the next op's operands.
	reps := call.EffCount()
	perRep := 0
	for j := range callee.Ops {
		perRep += len(callee.Ops[j].Args)
	}
	slab := make([]int, reps*int64(perRep))
	for r := int64(0); r < reps; r++ {
		for j := range callee.Ops {
			op := &callee.Ops[j]
			clone := *op
			clone.Args = slab[:len(op.Args):len(op.Args)]
			slab = slab[len(op.Args):]
			for k, s := range op.Args {
				clone.Args[k] = slotMap[s]
			}
			clone.CallArgs = make([]Range, 0, len(op.CallArgs))
			for _, cr := range op.CallArgs {
				clone.CallArgs = append(clone.CallArgs, remapRange(cr, slotMap)...)
			}
			dst = append(dst, clone)
		}
	}
	return dst, nil
}

// InlineCall replaces the call op at index i in caller with the callee's
// body (see ExpandCall). It returns the number of ops the call expanded
// to.
func (p *Program) InlineCall(caller *Module, i int) (int, error) {
	if i < 0 || i >= len(caller.Ops) || caller.Ops[i].Kind != CallOp {
		return 0, fmt.Errorf("ir: InlineCall: op %d of %s is not a call", i, caller.Name)
	}
	call := caller.Ops[i]
	body, err := p.ExpandCall(nil, caller, &call, i)
	if err != nil {
		return 0, err
	}
	newOps := make([]Op, 0, len(caller.Ops)-1+len(body))
	newOps = append(newOps, caller.Ops[:i]...)
	newOps = append(newOps, body...)
	newOps = append(newOps, caller.Ops[i+1:]...)
	caller.Ops = newOps
	return len(body), nil
}

// remapRange maps a contiguous callee range through the slot map,
// coalescing the image into maximal contiguous runs. Ranges that address
// a single register (the common case) stay a single range; a range that
// spans registers whose images are scattered splits into several.
func remapRange(r Range, slotMap []int) []Range {
	if r.Len == 0 {
		return nil
	}
	out := []Range{{Start: slotMap[r.Start], Len: 1}}
	for k := 1; k < r.Len; k++ {
		s := slotMap[r.Start+k]
		last := &out[len(out)-1]
		if s == last.Start+last.Len {
			last.Len++
		} else {
			out = append(out, Range{Start: s, Len: 1})
		}
	}
	return out
}
