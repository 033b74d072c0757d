package dag_test

import (
	"math/rand"
	"testing"
	"testing/quick"

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
	if len(g.Preds[2]) != 2 {
		t.Errorf("CNOT preds: %v", g.Preds[2])
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
			for _, p := range g.Preds[i] {
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
