package dag_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/verify"
)

// chainModule builds n serial H gates on one qubit.
func chainModule(n int) *ir.Module {
	m := ir.NewModule("chain", nil, []ir.Reg{{Name: "q", Size: 1}})
	for i := 0; i < n; i++ {
		m.Gate(qasm.H, 0)
	}
	return m
}

// parallelModule builds n independent H gates on n qubits.
func parallelModule(n int) *ir.Module {
	m := ir.NewModule("par", nil, []ir.Reg{{Name: "q", Size: n}})
	for i := 0; i < n; i++ {
		m.Gate(qasm.H, i)
	}
	return m
}

func TestChainGraph(t *testing.T) {
	g, err := dag.Build(chainModule(10))
	if err != nil {
		t.Fatal(err)
	}
	if g.CriticalPath() != 10 {
		t.Errorf("cp = %d", g.CriticalPath())
	}
	if len(g.Roots()) != 1 || g.Roots()[0] != 0 {
		t.Errorf("roots: %v", g.Roots())
	}
	for i := int32(0); i < 10; i++ {
		if g.Slack(i) != 0 {
			t.Errorf("slack(%d) = %d on a chain", i, g.Slack(i))
		}
	}
	done := make([]bool, 10)
	path := g.NextLongestPath(done, g.Roots())
	if len(path) != 10 {
		t.Errorf("longest path length %d", len(path))
	}
}

func TestParallelGraph(t *testing.T) {
	g, err := dag.Build(parallelModule(8))
	if err != nil {
		t.Fatal(err)
	}
	if g.CriticalPath() != 1 {
		t.Errorf("cp = %d", g.CriticalPath())
	}
	if len(g.Roots()) != 8 {
		t.Errorf("roots: %d", len(g.Roots()))
	}
}

func TestDiamondDependencies(t *testing.T) {
	// H(a); H(b); CNOT(a,b); H(a); X(c) — the CNOT depends on both
	// initial gates; the last H depends on the CNOT; X(c) floats free.
	m := ir.NewModule("d", nil, []ir.Reg{{Name: "q", Size: 3}})
	m.Gate(qasm.H, 0).Gate(qasm.H, 1).Gate(qasm.CNOT, 0, 1).Gate(qasm.H, 0).Gate(qasm.X, 2)
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	if g.CriticalPath() != 3 {
		t.Errorf("cp = %d", g.CriticalPath())
	}
	if len(g.Preds(2)) != 2 {
		t.Errorf("CNOT preds: %v", g.Preds(2))
	}
	// Both H gates sit on length-3 chains: zero slack. The free X can
	// slide anywhere: slack = cp - 1.
	if g.Slack(0) != 0 || g.Slack(1) != 0 || g.Slack(4) != 2 {
		t.Errorf("slack: %d %d %d", g.Slack(0), g.Slack(1), g.Slack(4))
	}
}

func TestBuildRejectsCalls(t *testing.T) {
	m := ir.NewModule("bad", nil, []ir.Reg{{Name: "q", Size: 1}})
	m.Call("other", ir.Range{Start: 0, Len: 1})
	if _, err := dag.Build(m); err == nil {
		t.Error("accepted call op")
	}
}

func TestBuildRejectsCounts(t *testing.T) {
	m := ir.NewModule("bad", nil, []ir.Reg{{Name: "q", Size: 1}})
	m.Ops = append(m.Ops, ir.Op{Kind: ir.GateOp, Gate: qasm.H, Args: []int{0}, Count: 3})
	if _, err := dag.Build(m); err == nil {
		t.Error("accepted unmaterialized count")
	}
}

func TestNextLongestPathSkipsDone(t *testing.T) {
	g, err := dag.Build(chainModule(5))
	if err != nil {
		t.Fatal(err)
	}
	done := make([]bool, 5)
	done[0], done[1] = true, true
	path := g.NextLongestPath(done, []int32{2})
	if len(path) != 3 || path[0] != 2 {
		t.Errorf("path: %v", path)
	}
	for i := range done {
		done[i] = true
	}
	if p := g.NextLongestPath(done, []int32{2}); p != nil {
		t.Errorf("expected nil path, got %v", p)
	}
}

// randomLeaf builds a random two-register circuit for property tests.
func randomLeaf(rng *rand.Rand, nOps, nQubits int) *ir.Module {
	m := ir.NewModule("rand", nil, []ir.Reg{{Name: "q", Size: nQubits}})
	for i := 0; i < nOps; i++ {
		switch rng.Intn(3) {
		case 0:
			m.Gate(qasm.H, rng.Intn(nQubits))
		case 1:
			a := rng.Intn(nQubits)
			b := (a + 1 + rng.Intn(nQubits-1)) % nQubits
			m.Gate(qasm.CNOT, a, b)
		default:
			m.Gate(qasm.T, rng.Intn(nQubits))
		}
	}
	return m
}

// Property: depth and height are consistent — depth+height-1 <= cp, with
// equality exactly on critical nodes, and slack is non-negative.
func TestDepthHeightInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomLeaf(rng, 60, 5)
		g, err := dag.Build(m)
		if err != nil {
			return false
		}
		cp := int32(g.CriticalPath())
		onCP := false
		for i := 0; i < g.Len(); i++ {
			d, h := g.Depth[i], g.Height[i]
			if d < 1 || h < 1 || d+h-1 > cp {
				return false
			}
			if g.Slack(int32(i)) < 0 {
				return false
			}
			if d+h-1 == cp {
				onCP = true
			}
		}
		return onCP
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: edges always point from lower to higher op index, and every
// dependency implies strictly increasing depth.
func TestEdgeDirectionInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomLeaf(rng, 80, 6)
		g, err := dag.Build(m)
		if err != nil {
			return false
		}
		for i := 0; i < g.Len(); i++ {
			for _, p := range g.Preds(i) {
				if p >= int32(i) || g.Depth[p] >= g.Depth[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refEdges is the per-node construction dag.Build used before its
// compressed sparse row form, kept as the reference for edge order:
// each op depends on the previous op touching each of its operands, in
// operand order, once per predecessor; successors append as later ops
// find them.
func refEdges(m *ir.Module) (preds, succs [][]int32) {
	n := len(m.Ops)
	preds, succs = make([][]int32, n), make([][]int32, n)
	last := make([]int32, m.TotalSlots())
	for i := range last {
		last[i] = -1
	}
	for i := 0; i < n; i++ {
		for _, slot := range m.Ops[i].Args {
			if p := last[slot]; p >= 0 && !slices.Contains(preds[i], p) {
				preds[i] = append(preds[i], p)
				succs[p] = append(succs[p], int32(i))
			}
			last[slot] = int32(i)
		}
	}
	return preds, succs
}

// gatedLeaves materializes every leaf of every gated
// benchmark at FTh 2000.
func gatedLeaves(t *testing.T) []*ir.Module {
	t.Helper()
	var out []*ir.Module
	for _, b := range bench.Gated() {
		opts := b.Pipeline
		opts.FTh = 2000
		p, err := core.Build(b.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		order, err := p.Topo()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range order {
			if mod := p.Modules[name]; mod.IsLeaf() {
				mat, _, err := core.MaterializeLeaf(mod)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, mat)
			}
		}
	}
	return out
}

// TestEdgesMatchReference checks Preds and Succs against refEdges, in
// order, over a random leaf corpus and every gated leaf.
func TestEdgesMatchReference(t *testing.T) {
	var mods []*ir.Module
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mods = append(mods, verify.RandomLeaf(rng, verify.GenOptions{Ops: 1 + rng.Intn(400), Qubits: 2 + rng.Intn(12), Wide: seed%2 == 0}))
	}
	mods = append(mods, ir.NewModule("empty", nil, nil))
	mods = append(mods, gatedLeaves(t)...)
	for mi, m := range mods {
		g, err := dag.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		preds, succs := refEdges(m)
		for i := range preds {
			if !slices.Equal(g.Preds(i), preds[i]) || !slices.Equal(g.Succs(i), succs[i]) {
				t.Fatalf("module %d (%s) node %d: preds %v succs %v, reference %v %v",
					mi, m.Name, i, g.Preds(i), g.Succs(i), preds[i], succs[i])
			}
		}
	}
}

// TestBuildAllocsConstant: dag.Build allocates the same number of
// times for 200 ops and for 20,000, so no per-node allocation is back.
func TestBuildAllocsConstant(t *testing.T) {
	allocs := func(ops int) float64 {
		m := verify.RandomLeaf(rand.New(rand.NewSource(3)), verify.GenOptions{Ops: ops, Qubits: 12, Wide: true})
		return testing.AllocsPerRun(20, func() {
			if _, err := dag.Build(m); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(200), allocs(20000); small != large || large > 3 {
		t.Errorf("dag.Build allocates %.0f times for 200 ops and %.0f for 20000; want the same, at most 3", small, large)
	}
}

func TestGroupKeyAngles(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Rot(qasm.Rz, 0.5, 0).Rot(qasm.Rz, 0.7, 1)
	k0 := dag.KeyOf(m, 0)
	k1 := dag.KeyOf(m, 1)
	if k0 == k1 {
		t.Error("distinct-angle rotations share a group key (Table 2 violated)")
	}
	m2 := ir.NewModule("m2", nil, []ir.Reg{{Name: "q", Size: 2}})
	m2.Gate(qasm.H, 0).Gate(qasm.H, 1)
	if dag.KeyOf(m2, 0) != dag.KeyOf(m2, 1) {
		t.Error("same-type gates have different keys")
	}
}

// TestGroupIDsMatchKeys pins GroupIDs to interning through a map keyed
// by GroupKey, first seen first: a NaN angle equals nothing, -0 equals
// +0, and 4,000 NaN rotations get 4,000 ids. Graph.Groups returns the
// same ids, one slice however often it is called.
func TestGroupIDsMatchKeys(t *testing.T) {
	small := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 3}})
	small.Gate(qasm.H, 0).Rot(qasm.Rz, 0.5, 1).Gate(qasm.CNOT, 0, 2).Rot(qasm.Rz, 0.7, 1)
	small.Rot(qasm.Rz, 0.5, 2).Gate(qasm.H, 1).Rot(qasm.Rx, 0.5, 0).Rot(qasm.Rz, 0, 0)
	small.Rot(qasm.Rz, math.Copysign(0, -1), 1).Gate(qasm.T, 2)
	small.Rot(qasm.Rz, math.NaN(), 0).Rot(qasm.Rz, math.NaN(), 1)
	leaf := verify.RandomLeaf(rand.New(rand.NewSource(7)), verify.GenOptions{Ops: 2000, Qubits: 12})
	nans := ir.NewModule("nans", nil, []ir.Reg{{Name: "q", Size: 4}})
	for i := 0; i < 4000; i++ {
		nans.Rot(qasm.Rz, math.NaN(), i%4) // 4000 groups of one
	}
	for _, m := range []*ir.Module{leaf, small, nans} {
		byKey := map[dag.GroupKey]int32{}
		want := make([]int32, len(m.Ops))
		for i := range m.Ops {
			k := dag.KeyOf(m, int32(i))
			id, ok := byKey[k]
			if !ok {
				id = int32(len(byKey))
				byKey[k] = id // a NaN key is never found again
			}
			want[i] = id
		}
		ids, n := dag.GroupIDs(m)
		if !slices.Equal(ids, want) || n != int(slices.Max(want))+1 {
			t.Errorf("%s: ids %v (%d groups), want %v", m.Name, ids, n, want)
		}
		g, err := dag.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		once, n1 := g.Groups()
		again, _ := g.Groups()
		if !slices.Equal(once, want) || n1 != n || &once[0] != &again[0] {
			t.Errorf("%s: Graph.Groups differs from GroupIDs or is interned twice", m.Name)
		}
	}
}

// BenchmarkBuild builds the dependency graph of a 2000-op random leaf
// and lists its roots, the start of every scheduler call.
func BenchmarkBuild(b *testing.B) {
	m := verify.RandomLeaf(rand.New(rand.NewSource(42)), verify.GenOptions{Ops: 2000, Qubits: 12})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := dag.Build(m)
		if err != nil {
			b.Fatal(err)
		}
		if len(g.Roots()) == 0 {
			b.Fatal("no roots")
		}
	}
}
