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
	n, err := p.InlineCall(main, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(main.Ops) != 2 {
		t.Fatalf("inlined %d ops, body %d", n, len(main.Ops))
	}
	// leaf slots 0,1 -> caller 2,3; leaf local 2 -> fresh caller local 4.
	if main.Ops[0].Args[0] != 2 || main.Ops[0].Args[1] != 4 {
		t.Errorf("op0 args: %v", main.Ops[0].Args)
	}
	if main.Ops[1].Args[0] != 3 || main.Ops[1].Args[1] != 4 {
		t.Errorf("op1 args: %v", main.Ops[1].Args)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("post-inline validate: %v", err)
	}
}

func TestInlineCallWithCount(t *testing.T) {
	p := NewProgram("main")
	leaf := twoQubitLeaf("leaf")
	p.Add(leaf)
	main := NewModule("main", nil, []Reg{{Name: "q", Size: 2}})
	main.CallN("leaf", 3, Range{Start: 0, Len: 2})
	p.Add(main)
	if _, err := p.InlineCall(main, 0); err != nil {
		t.Fatal(err)
	}
	if len(main.Ops) != 6 {
		t.Fatalf("replicated body: %d ops", len(main.Ops))
	}
}

func TestInlineCallNestedCallRemap(t *testing.T) {
	p := NewProgram("main")
	p.Add(twoQubitLeaf("leaf"))
	mid := NewModule("mid", []Reg{{Name: "x", Size: 2}}, nil)
	mid.Call("leaf", Range{Start: 0, Len: 2})
	p.Add(mid)
	main := NewModule("main", nil, []Reg{{Name: "q", Size: 5}})
	main.Call("mid", Range{Start: 3, Len: 2})
	p.Add(main)
	if _, err := p.InlineCall(main, 0); err != nil {
		t.Fatal(err)
	}
	call := main.Ops[0]
	if call.Kind != CallOp || call.Callee != "leaf" {
		t.Fatalf("expected remapped call, got %+v", call)
	}
	if call.CallArgs[0] != (Range{Start: 3, Len: 2}) {
		t.Errorf("nested call range: %+v", call.CallArgs[0])
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
