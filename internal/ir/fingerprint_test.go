package ir

import (
	"fmt"
	"testing"

	"github.com/scaffold-go/multisimd/internal/qasm"
)

func fpModule() *Module {
	m := NewModule("m", []Reg{{Name: "q", Size: 2}}, []Reg{{Name: "a", Size: 1}})
	m.Gate(qasm.H, 0)
	m.Rot(qasm.Rz, 0.5, 1)
	m.Ops = append(m.Ops, Op{Kind: GateOp, Gate: qasm.CNOT, Args: []int{0, 2}, Count: 3})
	return m
}

func TestFingerprintStable(t *testing.T) {
	a, b := fpModule(), fpModule()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical modules fingerprint differently")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint not stable across calls")
	}
}

func TestFingerprintIgnoresNames(t *testing.T) {
	a := fpModule()
	b := fpModule()
	b.Name = "other"
	b.Params[0].Name = "p"
	b.Locals[0].Name = "anc"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("module/register names should not affect the fingerprint")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpModule().Fingerprint()
	mutations := map[string]func(*Module){
		"gate":        func(m *Module) { m.Ops[0].Gate = qasm.X },
		"angle":       func(m *Module) { m.Ops[1].Angle = 0.25 },
		"arg slot":    func(m *Module) { m.Ops[0].Args = []int{1} },
		"count":       func(m *Module) { m.Ops[2].Count = 4 },
		"extra op":    func(m *Module) { m.Gate(qasm.T, 0) },
		"param size":  func(m *Module) { m.Params[0].Size = 3; m.relayout() },
		"local size":  func(m *Module) { m.Locals[0].Size = 2; m.relayout() },
		"callee name": func(m *Module) { m.Ops[2] = Op{Kind: CallOp, Callee: "f", CallArgs: []Range{{0, 2}}, Count: 3} },
	}
	for name, mutate := range mutations {
		m := fpModule()
		mutate(m)
		if m.Fingerprint() == base {
			t.Errorf("%s change not reflected in fingerprint", name)
		}
	}
	checkMarkedSensitivity(t)
}

// fpProgram is a two-module program for the program-level hash tests.
func fpProgram() *Program {
	p := NewProgram("main")
	leaf := NewModule("leaf", []Reg{{Name: "q", Size: 2}}, nil)
	leaf.Gate(qasm.H, 0)
	main := NewModule("main", nil, []Reg{{Name: "q", Size: 2}})
	main.Ops = append(main.Ops, Op{Kind: CallOp, Callee: "leaf", CallArgs: []Range{{Start: 0, Len: 2}}, Count: 1})
	p.Add(leaf)
	p.Add(main)
	return p
}

// fpMarkedProgram is a program of marked leaves: top calls mid twice
// over (Count 2) and inner once, mid calls inner three times over, and
// every call's callee locals are fresh locals of its caller.
func fpMarkedProgram(t testing.TB) *Program {
	p := NewProgram("top")
	inner := NewModule("inner", []Reg{{Name: "q", Size: 2}}, []Reg{{Name: "a", Size: 1}})
	inner.Gate(qasm.H, 0).Gate(qasm.CNOT, 0, 2).Rot(qasm.Rz, 0.25, 1)
	mid := NewModule("mid", []Reg{{Name: "x", Size: 3}}, nil)
	mid.CallN("inner", 3, Range{Start: 0, Len: 2})
	mid.Gate(qasm.T, 2)
	top := NewModule("top", []Reg{{Name: "q", Size: 4}}, []Reg{{Name: "b", Size: 1}})
	top.Gate(qasm.H, 4)
	top.CallN("mid", 2, Range{Start: 1, Len: 2}, Range{Start: 4, Len: 1})
	top.Call("inner", Range{Start: 0, Len: 2})
	for _, m := range []*Module{inner, mid, top} {
		p.Add(m)
		if err := p.MarkLeaf(m); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestProgramFingerprintStable(t *testing.T) {
	if fpProgram().Fingerprint() != fpProgram().Fingerprint() {
		t.Error("identical programs fingerprint differently")
	}
}

func TestProgramFingerprintSensitivity(t *testing.T) {
	base := fpProgram().Fingerprint()
	mutations := map[string]func(*Program){
		"entry":       func(p *Program) { p.Entry = "leaf" },
		"module body": func(p *Program) { p.Modules["leaf"].Gate(qasm.T, 1) },
		"module name": func(p *Program) {
			// Rewire leaf -> leaf2: per-module hashes are name-blind, the
			// program hash must not be (call graphs resolve by name).
			m := p.Modules["leaf"]
			m.Name = "leaf2"
			delete(p.Modules, "leaf")
			p.Modules["leaf2"] = m
			p.Order[0] = "leaf2"
			p.Modules["main"].Ops[0].Callee = "leaf2"
		},
	}
	for name, mutate := range mutations {
		p := fpProgram()
		mutate(p)
		if p.Fingerprint() == base {
			t.Errorf("%s change not reflected in program fingerprint", name)
		}
	}
}

// checkMarkedSensitivity: a marked leaf's Merkle digest changes with
// everything its inlined body is made of — each call's fresh-local
// start, count and argument ranges, and the body of a callee any number
// of calls down — and Module.Fingerprint agrees with Program.Digests on
// every module.
func checkMarkedSensitivity(t *testing.T) {
	t.Helper()
	base := fpMarkedProgram(t)
	want := base.Modules["top"].Fingerprint()
	for name, m := range base.Modules {
		if f, d := m.Fingerprint(), base.Digests().Modules[name]; f != d {
			t.Errorf("%s: Fingerprint %s, Digests %s", name, f, d)
		}
	}
	mutations := map[string]func(*Program){
		"fresh-local start": func(p *Program) { p.Modules["top"].calls[1].fresh++ },
		"call count":        func(p *Program) { p.Modules["top"].Ops[1].Count = 3 },
		"nested call count": func(p *Program) { p.Modules["mid"].Ops[0].Count = 4 },
		"call range":        func(p *Program) { p.Modules["top"].Ops[1].CallArgs[1].Start = 3 },
		"callee body":       func(p *Program) { p.Modules["mid"].Ops[1].Gate = qasm.S },
		"nested callee":     func(p *Program) { p.Modules["inner"].Ops[2].Angle = 0.5 },
	}
	for name, mutate := range mutations {
		p := fpMarkedProgram(t)
		mutate(p)
		if p.Modules["top"].Fingerprint() == want {
			t.Errorf("%s change not reflected in the marked leaf's fingerprint", name)
		}
		if p.Digests().Modules["top"] == want {
			t.Errorf("%s change not reflected in Digests", name)
		}
	}
}

func TestFingerprintCallArgs(t *testing.T) {
	a := fpModule()
	a.Ops[2] = Op{Kind: CallOp, Callee: "f", CallArgs: []Range{{Start: 0, Len: 2}}, Count: 1}
	b := fpModule()
	b.Ops[2] = Op{Kind: CallOp, Callee: "f", CallArgs: []Range{{Start: 1, Len: 2}}, Count: 1}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("call argument ranges should affect the fingerprint")
	}
}

// fpBigModule is a call-bearing module whose encoding spans many hash
// blocks: one- and two-qubit gates, rotations, repeated ops, and calls —
// one with a callee name longer than any fixed encoding buffer — so a
// rewrite of the encoder is pinned across every flush boundary.
func fpBigModule() *Module {
	long := make([]byte, 1500)
	for i := range long {
		long[i] = 'a' + byte(i%26)
	}
	m := NewModule("big", []Reg{{Name: "q", Size: 16}, {Name: "r", Size: 3}}, []Reg{{Name: "a", Size: 5}})
	for i := 0; i < 120; i++ {
		s := i % 24
		switch i % 5 {
		case 0:
			m.Gate(qasm.H, s)
		case 1:
			m.Rot(qasm.Rz, float64(i)/7, s)
		case 2:
			m.Gate(qasm.CNOT, s, (s+1)%24)
		case 3:
			m.CallN("leaf", int64(i), Range{Start: s % 20, Len: 4}, Range{Start: 20, Len: 2})
		case 4:
			m.Call(string(long[:i*11]), Range{Start: 0, Len: 24})
		}
	}
	return m
}

// TestFingerprintGolden pins the exact byte stream of the hash: cache
// keys and committed content-addressed stores are keyed by these
// digests, so an encoder change that alters them would silently
// invalidate every store on disk.
func TestFingerprintGolden(t *testing.T) {
	p, mp := fpProgram(), fpMarkedProgram(t)
	for _, c := range []struct {
		name string
		got  Fingerprint
		want string
	}{
		{"fpModule", fpModule().Fingerprint(), "18df00850be3974ce2ee04ba0b4b991b52eedeb0eb39327f61f37ec4bf14d1fa"},
		{"fpProgram main", p.Modules["main"].Fingerprint(), "9bc68f030388f1f21ba65f4c116606303876a32f02b990e47a220e6dd1273e90"},
		{"fpProgram", p.Fingerprint(), "7117642288adb2714dc335e9ec45cd5891208b47e30b2b2ce734ba23b198ac3e"},
		{"fpBigModule", fpBigModule().Fingerprint(), "d620a7a8752dd02d5560bf181f8d6d482f16db9de8a3563927f85f9f7aaac4e1"},
		{"fpMarkedProgram top", mp.Modules["top"].Fingerprint(), "76245980bb00adcfa1b0a7e44ca7e51820274965a66a1a71c6672c8ebf3ad65c"},
		{"fpMarkedProgram", mp.Fingerprint(), "8df251e3b68c653a06ec2128209887d328cbd8e959278f4dde3f8a4167c14de0"},
	} {
		if c.got.String() != c.want {
			t.Errorf("%s fingerprint = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestFingerprintAllocs guards the one-pass encoder: hashing a module
// allocates nothing, including callee names longer than its buffer and
// a marked leaf's Merkle digest, whose memo of callee digests stays on
// the stack while it holds a few entries.
func TestFingerprintAllocs(t *testing.T) {
	for name, m := range map[string]*Module{
		"fpModule":            fpModule(),
		"fpBigModule":         fpBigModule(),
		"fpMarkedProgram top": fpMarkedProgram(t).Modules["top"],
	} {
		if allocs := testing.AllocsPerRun(100, func() { m.Fingerprint() }); allocs != 0 {
			t.Errorf("%s: Module.Fingerprint allocates %.0f times per call, want 0", name, allocs)
		}
	}
}

// BenchmarkModuleFingerprint hashes a leaf-sized body: 4096 one- and
// two-qubit gates and rotations over 64 slots, the shape the evaluation
// engine hashes once per leaf per Evaluate.
func BenchmarkModuleFingerprint(b *testing.B) {
	m := NewModule("leaf", []Reg{{Name: "q", Size: 64}}, nil)
	for i := 0; i < 4096; i++ {
		s := (i * 7) % 64
		switch i % 3 {
		case 0:
			m.Gate(qasm.H, s)
		case 1:
			m.Rot(qasm.Rz, float64(i)/64, s)
		case 2:
			m.Gate(qasm.CNOT, s, (s+1)%64)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpSink = m.Fingerprint()
	}
}

// fpSink keeps the benchmarked hash from being optimized away.
var fpSink Fingerprint

// BenchmarkProgramDigests hashes a program whose top leaf makes 256
// counted calls to a marked leaf that itself calls a 64-gate leaf, at
// call counts 1 and 1000: the expansion grows 1000-fold, the hashing
// cost does not, because a Merkle digest hashes each module's own ops
// once.
func BenchmarkProgramDigests(b *testing.B) {
	for _, count := range []int64{1, 1000} {
		b.Run(fmt.Sprintf("count=%d", count), func(b *testing.B) {
			p := NewProgram("top")
			inner := NewModule("inner", []Reg{{Name: "q", Size: 8}}, []Reg{{Name: "a", Size: 2}})
			for i := 0; i < 64; i++ {
				s := i % 8
				switch i % 3 {
				case 0:
					inner.Gate(qasm.H, s)
				case 1:
					inner.Rot(qasm.Rz, float64(i)/64, s)
				case 2:
					inner.Gate(qasm.CNOT, s, 8+i%2)
				}
			}
			mid := NewModule("mid", []Reg{{Name: "x", Size: 8}}, nil)
			mid.CallN("inner", count, Range{Start: 0, Len: 8})
			mid.Gate(qasm.X, 0)
			top := NewModule("top", []Reg{{Name: "q", Size: 16}}, nil)
			for i := 0; i < 256; i++ {
				top.CallN("mid", count, Range{Start: i % 9, Len: 8})
			}
			for _, m := range []*Module{inner, mid, top} {
				p.Add(m)
				if err := p.MarkLeaf(m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fpSink = p.Digests().Program
			}
			b.ReportMetric(float64(top.MaterializedSize()), "expanded-ops")
		})
	}
}
