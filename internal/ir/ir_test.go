package ir

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/scaffold-go/multisimd/internal/qasm"
)

func twoQubitLeaf(name string) *Module {
	m := NewModule(name, []Reg{{Name: "a", Size: 1}, {Name: "b", Size: 1}}, nil)
	m.Gate(qasm.H, 0).Gate(qasm.CNOT, 0, 1)
	return m
}

func TestSlotLayout(t *testing.T) {
	m := NewModule("m", []Reg{{Name: "p", Size: 3}, {Name: "q", Size: 1}}, []Reg{{Name: "anc", Size: 2}})
	if m.ParamSlots() != 4 || m.TotalSlots() != 6 || m.LocalSlots() != 2 {
		t.Fatalf("layout: %d %d %d", m.ParamSlots(), m.TotalSlots(), m.LocalSlots())
	}
	if m.SlotName(0) != "p[0]" || m.SlotName(3) != "q" || m.SlotName(5) != "anc[1]" {
		t.Errorf("names: %q %q %q", m.SlotName(0), m.SlotName(3), m.SlotName(5))
	}
	r, ok := m.RegRange("anc")
	if !ok || r != (Range{Start: 4, Len: 2}) {
		t.Errorf("anc range: %+v %v", r, ok)
	}
	if _, ok := m.RegRange("nope"); ok {
		t.Error("found nonexistent register")
	}
	added := m.AddLocal("extra", 3)
	if added != (Range{Start: 6, Len: 3}) || m.TotalSlots() != 9 {
		t.Errorf("AddLocal: %+v total=%d", added, m.TotalSlots())
	}
}

func TestValidateCatches(t *testing.T) {
	build := func(f func(p *Program)) error {
		p := NewProgram("main")
		main := NewModule("main", nil, []Reg{{Name: "q", Size: 2}})
		p.Add(main)
		f(p)
		return p.Validate()
	}
	if err := build(func(p *Program) {
		p.Modules["main"].Gate(qasm.CNOT, 0, 1)
	}); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
	cases := map[string]func(p *Program){
		"slot out of range": func(p *Program) { p.Modules["main"].Gate(qasm.H, 5) },
		"negative slot":     func(p *Program) { p.Modules["main"].Gate(qasm.H, -1) },
		"arity":             func(p *Program) { p.Modules["main"].Gate(qasm.CNOT, 0) },
		"no-cloning gate":   func(p *Program) { p.Modules["main"].Gate(qasm.CNOT, 1, 1) },
		"no-cloning apart":  func(p *Program) { p.Modules["main"].Gate(qasm.Toffoli, 0, 1, 0) },
		"missing callee":    func(p *Program) { p.Modules["main"].Call("ghost", Range{Start: 0, Len: 1}) },
		"arg size mismatch": func(p *Program) {
			p.Add(twoQubitLeaf("leaf"))
			p.Modules["main"].Call("leaf", Range{Start: 0, Len: 1})
		},
		"aliased call args": func(p *Program) {
			p.Add(twoQubitLeaf("leaf"))
			p.Modules["main"].Call("leaf", Range{Start: 0, Len: 1}, Range{Start: 0, Len: 1})
		},
	}
	for name, f := range cases {
		if err := build(f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTopoAndRecursion(t *testing.T) {
	p := NewProgram("main")
	p.Add(twoQubitLeaf("leaf"))
	mid := NewModule("mid", []Reg{{Name: "x", Size: 2}}, nil)
	mid.Call("leaf", Range{Start: 0, Len: 2})
	p.Add(mid)
	main := NewModule("main", nil, []Reg{{Name: "q", Size: 2}})
	main.Call("mid", Range{Start: 0, Len: 2})
	p.Add(main)
	order, err := p.Topo()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "leaf" || order[2] != "main" {
		t.Errorf("order: %v", order)
	}
	// Introduce recursion.
	p.Modules["leaf"].Call("main")
	if _, err := p.Topo(); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("recursion not caught: %v", err)
	}
}

func TestMaterialize(t *testing.T) {
	m := NewModule("m", nil, []Reg{{Name: "q", Size: 1}})
	m.Ops = append(m.Ops, Op{Kind: GateOp, Gate: qasm.H, Args: []int{0}, Count: 5})
	m.Gate(qasm.X, 0)
	if m.MaterializedSize() != 6 {
		t.Fatalf("size %d", m.MaterializedSize())
	}
	mat, err := m.Materialize(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(mat.Ops) != 6 {
		t.Fatalf("materialized %d ops", len(mat.Ops))
	}
	for i := 0; i < 5; i++ {
		if mat.Ops[i].Gate != qasm.H || mat.Ops[i].Count != 1 {
			t.Errorf("op %d: %+v", i, mat.Ops[i])
		}
	}
	if _, err := m.Materialize(3); err == nil {
		t.Error("limit not enforced")
	}
}

// TestInlineCall marks a caller as a leaf and checks that its
// materialized body is the call inlined: callee params bound to the
// call's argument slots and callee locals to fresh caller locals.
func TestInlineCall(t *testing.T) {
	p := NewProgram("main")
	leaf := NewModule("leaf", []Reg{{Name: "x", Size: 2}}, []Reg{{Name: "anc", Size: 1}})
	leaf.Gate(qasm.CNOT, 0, 2).Gate(qasm.CNOT, 1, 2)
	p.Add(leaf)
	main := NewModule("main", nil, []Reg{{Name: "q", Size: 4}})
	main.Call("leaf", Range{Start: 2, Len: 2})
	p.Add(main)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := p.MarkLeaf(main); err != nil {
		t.Fatal(err)
	}
	if !main.IsLeaf() || len(main.Ops) != 1 {
		t.Fatalf("marked main: leaf %v, %d ops", main.IsLeaf(), len(main.Ops))
	}
	if start, ok := main.CallLocals(0); !ok || start != 4 {
		t.Errorf("CallLocals(0) = %d, %v; want 4, true", start, ok)
	}
	if main.SlotName(4) != "leaf.0.anc" || main.TotalSlots() != 5 {
		t.Errorf("fresh local: %q of %d slots", main.SlotName(4), main.TotalSlots())
	}
	mat, err := main.Materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mat.Ops) != 2 {
		t.Fatalf("inlined body %d ops", len(mat.Ops))
	}
	// leaf slots 0,1 -> caller 2,3; leaf local 2 -> fresh caller local 4.
	if mat.Ops[0].Args[0] != 2 || mat.Ops[0].Args[1] != 4 {
		t.Errorf("op0 args: %v", mat.Ops[0].Args)
	}
	if mat.Ops[1].Args[0] != 3 || mat.Ops[1].Args[1] != 4 {
		t.Errorf("op1 args: %v", mat.Ops[1].Args)
	}
	// Operands are windows of one slab, each clipped to its own length:
	// appending to one op's operands must not overwrite the next op's.
	mat.Ops[0].Args = append(mat.Ops[0].Args, 7)
	if mat.Ops[1].Args[0] != 3 {
		t.Errorf("append to op0's operands changed op1's to %v", mat.Ops[1].Args)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("post-mark validate: %v", err)
	}
}

func TestInlineCallWithCount(t *testing.T) {
	p := NewProgram("main")
	leaf := twoQubitLeaf("leaf")
	p.Add(leaf)
	main := NewModule("main", nil, []Reg{{Name: "q", Size: 2}})
	main.CallN("leaf", 3, Range{Start: 0, Len: 2})
	p.Add(main)
	if err := p.MarkLeaf(main); err != nil {
		t.Fatal(err)
	}
	if main.MaterializedSize() != 6 {
		t.Fatalf("replicated body: %d ops", main.MaterializedSize())
	}
	mat, err := main.Materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mat.Ops) != 6 {
		t.Fatalf("replicated body: %d ops", len(mat.Ops))
	}
}

// TestInlineCallNestedCallRemap marks a chain main -> mid -> leaf and
// checks that leaf's gates land on main's slots through both calls.
func TestInlineCallNestedCallRemap(t *testing.T) {
	p := NewProgram("main")
	p.Add(twoQubitLeaf("leaf"))
	mid := NewModule("mid", []Reg{{Name: "x", Size: 2}}, nil)
	mid.Call("leaf", Range{Start: 0, Len: 2})
	p.Add(mid)
	main := NewModule("main", nil, []Reg{{Name: "q", Size: 5}})
	main.Call("mid", Range{Start: 3, Len: 2})
	p.Add(main)
	if err := p.MarkLeaf(main); err == nil {
		t.Fatal("marked a module whose callee is not a leaf")
	}
	for _, m := range []*Module{mid, main} {
		if err := p.MarkLeaf(m); err != nil {
			t.Fatal(err)
		}
	}
	mat, err := main.Materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mat.Ops) != 2 || mat.Ops[0].Kind != GateOp {
		t.Fatalf("expanded body: %+v", mat.Ops)
	}
	for i, op := range mat.Ops {
		for _, s := range op.Args {
			if s != 3 && s != 4 {
				t.Errorf("op %d: slot %d outside the call's range [3,5)", i, s)
			}
		}
	}
	if order, err := p.Topo(); err != nil || len(order) != 1 {
		t.Errorf("Topo past a marked leaf: %v, %v", order, err)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewProgram("main")
	m := twoQubitLeaf("main")
	p.Add(m)
	c := p.Clone()
	c.Modules["main"].Ops[0].Args[0] = 1
	c.Modules["main"].Gate(qasm.X, 0)
	if m.Ops[0].Args[0] != 0 || len(m.Ops) != 2 {
		t.Error("clone shares storage with original")
	}
}

// TestCloneKeepsMark clones a program with a marked leaf: the copy's
// leaf expands through the copy's callee, so changing the original
// callee afterwards changes neither the copy's body nor its digest.
func TestCloneKeepsMark(t *testing.T) {
	p := NewProgram("main")
	p.Add(twoQubitLeaf("leaf"))
	main := NewModule("main", nil, []Reg{{Name: "q", Size: 2}})
	main.CallN("leaf", 2, Range{Start: 0, Len: 2})
	p.Add(main)
	if err := p.MarkLeaf(main); err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	want := main.Fingerprint()
	p.Modules["leaf"].Ops[0].Gate = qasm.T
	cm := c.Modules["main"]
	if !cm.IsLeaf() || cm.Fingerprint() != want || cm.MaterializedSize() != 4 {
		t.Errorf("clone: leaf %v, size %d, digest kept %v", cm.IsLeaf(), cm.MaterializedSize(), cm.Fingerprint() == want)
	}
	if main.Fingerprint() == want {
		t.Error("the original's leaf does not expand through its own callee")
	}
}

// Property: materializing any random Count assignment preserves total
// expanded size and never produces Count > 1 ops.
func TestMaterializeQuick(t *testing.T) {
	f := func(counts []uint8) bool {
		if len(counts) == 0 || len(counts) > 50 {
			return true
		}
		m := NewModule("m", nil, []Reg{{Name: "q", Size: 1}})
		var want int64
		for _, c := range counts {
			n := int64(c%7) + 1
			m.Ops = append(m.Ops, Op{Kind: GateOp, Gate: qasm.H, Args: []int{0}, Count: n})
			want += n
		}
		mat, err := m.Materialize(0)
		if err != nil {
			return false
		}
		if int64(len(mat.Ops)) != want {
			return false
		}
		for i := range mat.Ops {
			if mat.Ops[i].EffCount() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
