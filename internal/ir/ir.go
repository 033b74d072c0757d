// Package ir defines the hierarchical quantum intermediate representation
// used by every pass in the toolflow.
//
// A Program is a set of Modules. A Module is a linear sequence of
// operations over a flat, module-local qubit slot space: parameter slots
// first, then local (ancilla) slots. Operations are either primitive gate
// applications or calls to other modules. Control flow is fully resolved
// at compile time (the paper's "deeply-analyzable" property, §3.1):
// classical loops either unroll during lowering or collapse into a Count
// multiplier on the repeated operation, which lets resource estimation
// reach paper-scale (10^12-gate) programs without materializing them.
package ir

import (
	"fmt"
	"slices"
	"sort"

	"github.com/scaffold-go/multisimd/internal/qasm"
)

// Reg describes a named qubit register: a parameter or a local.
type Reg struct {
	Name string
	Size int
}

// Range addresses a contiguous run of qubit slots in a module's slot space.
type Range struct {
	Start int
	Len   int
}

// OpKind distinguishes gate applications from module calls.
type OpKind uint8

const (
	// GateOp applies a quantum gate to qubit slots.
	GateOp OpKind = iota
	// CallOp invokes another module, passing slot ranges as arguments.
	CallOp
)

// Op is one operation in a module body.
//
// For GateOp: Gate, Angle and Args are meaningful; Args holds one slot
// index per gate operand. For CallOp: Callee names the target module and
// CallArgs lists caller slot ranges that, concatenated, bind to the
// callee's parameter slots in order.
//
// Count is a repetition multiplier (>= 1): the operation executes Count
// times back to back. It is how classically counted loops that do not
// index by their induction variable stay symbolic.
type Op struct {
	Kind     OpKind
	Gate     qasm.Opcode
	Angle    float64
	Args     []int
	Callee   string
	CallArgs []Range
	Count    int64
}

// EffCount returns the repetition count, treating 0 as 1 so that
// zero-valued Ops behave as single operations.
func (o *Op) EffCount() int64 {
	if o.Count <= 0 {
		return 1
	}
	return o.Count
}

// Module is one procedure: parameters, locals, and a body.
type Module struct {
	Name   string
	Params []Reg
	Locals []Reg
	Ops    []Op

	paramSlots int
	totalSlots int
	names      []string

	// leaf is set by MarkLeaf: calls lists its calls in op order, and
	// ext is the extent of the body they expand into.
	leaf  bool
	calls []leafCall
	ext   extent
}

// NewModule constructs a module and computes its slot layout.
func NewModule(name string, params, locals []Reg) *Module {
	m := &Module{Name: name, Params: params, Locals: locals}
	m.relayout()
	return m
}

func (m *Module) relayout() {
	m.paramSlots = 0
	for _, p := range m.Params {
		m.paramSlots += p.Size
	}
	m.totalSlots = m.paramSlots
	for _, l := range m.Locals {
		m.totalSlots += l.Size
	}
	m.names = nil
}

// ParamSlots returns the number of slots occupied by parameters.
func (m *Module) ParamSlots() int { return m.paramSlots }

// TotalSlots returns the full size of the module's qubit slot space.
func (m *Module) TotalSlots() int { return m.totalSlots }

// LocalSlots returns the number of local (ancilla) slots.
func (m *Module) LocalSlots() int { return m.totalSlots - m.paramSlots }

// AddLocal appends a local register and returns the range it occupies.
func (m *Module) AddLocal(name string, size int) Range {
	m.Locals = append(m.Locals, Reg{Name: name, Size: size})
	start := m.totalSlots
	m.totalSlots += size
	m.names = nil
	return Range{Start: start, Len: size}
}

// SlotName returns a human-readable name for a slot index, used by QASM
// emission and diagnostics.
func (m *Module) SlotName(slot int) string {
	if m.names == nil {
		m.names = make([]string, 0, m.totalSlots)
		emit := func(regs []Reg) {
			for _, r := range regs {
				if r.Size == 1 {
					m.names = append(m.names, r.Name)
					continue
				}
				for i := 0; i < r.Size; i++ {
					m.names = append(m.names, fmt.Sprintf("%s[%d]", r.Name, i))
				}
			}
		}
		emit(m.Params)
		emit(m.Locals)
	}
	if slot < 0 || slot >= len(m.names) {
		return fmt.Sprintf("slot%d", slot)
	}
	return m.names[slot]
}

// RegRange returns the slot range of the named register (parameter or
// local), or false if no such register exists.
func (m *Module) RegRange(name string) (Range, bool) {
	off := 0
	for _, p := range m.Params {
		if p.Name == name {
			return Range{Start: off, Len: p.Size}, true
		}
		off += p.Size
	}
	for _, l := range m.Locals {
		if l.Name == name {
			return Range{Start: off, Len: l.Size}, true
		}
		off += l.Size
	}
	return Range{}, false
}

// Gate appends a single gate op and returns the module for chaining.
func (m *Module) Gate(op qasm.Opcode, slots ...int) *Module {
	m.Ops = append(m.Ops, Op{Kind: GateOp, Gate: op, Args: slots, Count: 1})
	return m
}

// Rot appends a rotation gate with an angle.
func (m *Module) Rot(op qasm.Opcode, angle float64, slots ...int) *Module {
	m.Ops = append(m.Ops, Op{Kind: GateOp, Gate: op, Angle: angle, Args: slots, Count: 1})
	return m
}

// Call appends a call op.
func (m *Module) Call(callee string, args ...Range) *Module {
	m.Ops = append(m.Ops, Op{Kind: CallOp, Callee: callee, CallArgs: args, Count: 1})
	return m
}

// CallN appends a call op repeated count times.
func (m *Module) CallN(callee string, count int64, args ...Range) *Module {
	m.Ops = append(m.Ops, Op{Kind: CallOp, Callee: callee, CallArgs: args, Count: count})
	return m
}

// IsLeaf reports whether the module is a leaf (paper §3.1: leaf modules
// are composed solely of primitive gates): marked by MarkLeaf, or free of
// call operations.
func (m *Module) IsLeaf() bool {
	if m.leaf {
		return true
	}
	for i := range m.Ops {
		if m.Ops[i].Kind == CallOp {
			return false
		}
	}
	return true
}

// Callees returns the distinct callee names, sorted.
func (m *Module) Callees() []string {
	set := map[string]bool{}
	for i := range m.Ops {
		if m.Ops[i].Kind == CallOp {
			set[m.Ops[i].Callee] = true
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Clone deep-copies the module.
func (m *Module) Clone() *Module {
	c := &Module{
		Name:       m.Name,
		Params:     append([]Reg(nil), m.Params...),
		Locals:     append([]Reg(nil), m.Locals...),
		Ops:        make([]Op, len(m.Ops)),
		paramSlots: m.paramSlots,
		totalSlots: m.totalSlots,
		leaf:       m.leaf,
		calls:      slices.Clone(m.calls),
		ext:        m.ext,
	}
	for i := range m.Ops {
		o := m.Ops[i]
		o.Args = append([]int(nil), o.Args...)
		o.CallArgs = append([]Range(nil), o.CallArgs...)
		c.Ops[i] = o
	}
	return c
}

// Program is a compiled quantum program: a call DAG of modules rooted at
// Entry.
type Program struct {
	Modules map[string]*Module
	Order   []string // definition order, for deterministic iteration
	Entry   string
}

// NewProgram returns an empty program with the given entry name.
func NewProgram(entry string) *Program {
	return &Program{Modules: map[string]*Module{}, Entry: entry}
}

// Add registers a module, replacing any previous module of the same name.
func (p *Program) Add(m *Module) {
	if _, exists := p.Modules[m.Name]; !exists {
		p.Order = append(p.Order, m.Name)
	}
	p.Modules[m.Name] = m
}

// Module returns the named module or nil.
func (p *Program) Module(name string) *Module { return p.Modules[name] }

// EntryModule returns the entry module or nil.
func (p *Program) EntryModule() *Module { return p.Modules[p.Entry] }

// Clone deep-copies the program. A marked leaf of the copy expands
// through the copies of its callees; one that a pass has since replaced
// in p stays shared, as nothing can reach it to change it.
func (p *Program) Clone() *Program {
	c := NewProgram(p.Entry)
	for _, name := range p.Order {
		c.Add(p.Modules[name].Clone())
	}
	for _, m := range c.Modules {
		for i, lc := range m.calls {
			if p.Modules[lc.callee.Name] == lc.callee {
				m.calls[i].callee = c.Modules[lc.callee.Name]
			}
		}
	}
	return c
}

// Topo returns module names in bottom-up topological order of the call
// graph (callees before callers), restricted to modules reachable from the
// entry. It stops at a marked leaf: its callees are part of its body.
// It returns an error on recursion or missing callees.
func (p *Program) Topo() ([]string, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var order []string
	var visit func(name string) error
	visit = func(name string) error {
		switch color[name] {
		case gray:
			return fmt.Errorf("ir: recursive module %q", name)
		case black:
			return nil
		}
		m := p.Modules[name]
		if m == nil {
			return fmt.Errorf("ir: missing module %q", name)
		}
		color[name] = gray
		if !m.leaf {
			for _, callee := range m.Callees() {
				if err := visit(callee); err != nil {
					return err
				}
			}
		}
		color[name] = black
		order = append(order, name)
		return nil
	}
	if err := visit(p.Entry); err != nil {
		return nil, err
	}
	return order, nil
}

// SetLocals replaces the module's local registers and recomputes the
// slot layout. Callers must have rewritten all op slot references to the
// new layout already (used by optimization passes like ancilla reuse),
// so it applies to a materialized body, not to a leaf whose calls still
// expand into fresh locals.
func (m *Module) SetLocals(locals []Reg) {
	m.Locals = locals
	m.relayout()
}
