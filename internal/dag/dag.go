// Package dag builds the gate-dependency DAG of a materialized leaf
// module and provides the graph analyses the schedulers need: ASAP
// depths, heights, the critical path, slack, longest-path extraction
// for LPFS (paper §4.2) and the SIMD group of every op.
//
// Dependencies follow from the no-cloning theorem (paper §3.1.1): any
// shared operand between two operations orders them, so each op depends
// on the previous op touching each of its qubits.
package dag

import (
	"fmt"
	"sync"

	"github.com/scaffold-go/multisimd/internal/ir"
)

// Graph is the dependency DAG over a module's ops. Node i corresponds to
// Module.Ops[i]. Edges are held in compressed sparse row form: one
// offset per node into one adjacency slab per direction, read through
// Preds and Succs. Every per-node array is carved from one int32 slab.
type Graph struct {
	M *ir.Module
	// Depth is the 1-based ASAP level: 1 + max depth of predecessors.
	Depth []int32
	// Height is the 1-based longest path to any sink: 1 + max successor
	// height.
	Height []int32
	cp     int32

	predOff, succOff []int32 // node i's edges are preds/succs[off[i]:off[i+1]]
	preds, succs     []int32

	groupsOnce sync.Once
	gid        []int32 // GroupIDs(M), interned on first use
	groups     int
}

// Build constructs the graph. The module must be a materialized leaf:
// gate ops only, Count <= 1.
func Build(m *ir.Module) (*Graph, error) {
	n := len(m.Ops)
	args := 0 // one operand contributes at most one edge
	for i := range m.Ops {
		op := &m.Ops[i]
		if op.Kind != ir.GateOp {
			return nil, fmt.Errorf("dag: module %s op %d is a call; materialize and flatten leaves first", m.Name, i)
		}
		if op.EffCount() != 1 {
			return nil, fmt.Errorf("dag: module %s op %d has count %d; materialize first", m.Name, i, op.Count)
		}
		args += len(op.Args)
	}
	slab := make([]int32, 2*n+2*(n+1)+2*args)
	carve := func(size int) []int32 {
		s := slab[:size:size]
		slab = slab[size:]
		return s
	}
	g := &Graph{
		M:       m,
		Depth:   carve(n),
		Height:  carve(n),
		predOff: carve(n + 1),
		succOff: carve(n + 1),
	}
	preds, succs := carve(args), carve(args)

	last := make([]int32, m.TotalSlots())
	for i := range last {
		last[i] = -1
	}
	e := int32(0)
	for i := 0; i < n; i++ {
		g.predOff[i] = e
		var depth int32
		for _, slot := range m.Ops[i].Args {
			p := last[slot]
			if p >= 0 {
				if !contains(preds[g.predOff[i]:e], p) {
					preds[e] = p
					e++
					g.succOff[p]++
				}
				if g.Depth[p] > depth {
					depth = g.Depth[p]
				}
			}
			last[slot] = int32(i)
		}
		g.Depth[i] = depth + 1
		if g.Depth[i] > g.cp {
			g.cp = g.Depth[i]
		}
	}
	g.predOff[n] = e
	g.preds, g.succs = preds[:e:e], succs[:e:e]

	// succOff holds each node's out-degree. Turn it into start offsets,
	// fill every node's successors in ascending order (the order the
	// edges were found), which advances each offset to the next node's
	// start, then shift the offsets back by one node.
	start := int32(0)
	for p := 0; p < n; p++ {
		start, g.succOff[p] = start+g.succOff[p], start
	}
	for i := 0; i < n; i++ {
		for _, p := range g.Preds(i) {
			g.succs[g.succOff[p]] = int32(i)
			g.succOff[p]++
		}
	}
	copy(g.succOff[1:], g.succOff[:n])
	g.succOff[0] = 0
	g.succOff[n] = e

	// Heights in reverse order: successors always have larger indices
	// because dependencies point backward in the linear op order.
	for i := n - 1; i >= 0; i-- {
		var h int32
		for _, s := range g.Succs(i) {
			if g.Height[s] > h {
				h = g.Height[s]
			}
		}
		g.Height[i] = h + 1
	}
	return g, nil
}

func contains(xs []int32, x int32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Preds returns node i's predecessors, in operand order. The slice is
// cap-clipped and must not be modified.
func (g *Graph) Preds(i int) []int32 {
	lo, hi := g.predOff[i], g.predOff[i+1]
	return g.preds[lo:hi:hi]
}

// Succs returns node i's successors, ascending. The slice is cap-clipped
// and must not be modified.
func (g *Graph) Succs(i int) []int32 {
	lo, hi := g.succOff[i], g.succOff[i+1]
	return g.succs[lo:hi:hi]
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.Depth) }

// CriticalPath returns the length (in ops) of the longest dependency
// chain — the paper's theoretical speedup bound (Fig. 6 "cp" bars).
func (g *Graph) CriticalPath() int { return int(g.cp) }

// Slack returns how many levels op i can slip without stretching the
// critical path: ALAP(i) - ASAP(i).
func (g *Graph) Slack(i int32) int32 {
	return g.cp - g.Height[i] + 1 - g.Depth[i]
}

// Groups returns GroupIDs of the graph's module: every op's dense SIMD
// group id and the group count. They are interned on the first call and
// shared by every later one, so the schedulers of every width and
// configuration of one materialized body intern its groups once. The
// slice must not be modified.
func (g *Graph) Groups() ([]int32, int) {
	g.groupsOnce.Do(func() { g.gid, g.groups = GroupIDs(g.M) })
	return g.gid, g.groups
}

// NextLongestPath extracts a maximal dependency chain starting from the
// candidate node set (typically the current ready list), skipping nodes
// already marked done. It greedily starts at the candidate with the
// largest static height and extends through the not-done successor of
// largest height — exact for the first extraction and a tight
// approximation for refills (paper's Refill option). Returns nil when no
// candidate remains.
func (g *Graph) NextLongestPath(done []bool, candidates []int32) []int32 {
	best := int32(-1)
	for _, c := range candidates {
		if done[c] {
			continue
		}
		if best < 0 || g.Height[c] > g.Height[best] {
			best = c
		}
	}
	if best < 0 {
		return nil
	}
	path := []int32{best}
	cur := best
	for {
		next := int32(-1)
		for _, s := range g.Succs(int(cur)) {
			if done[s] {
				continue
			}
			if next < 0 || g.Height[s] > g.Height[next] {
				next = s
			}
		}
		if next < 0 {
			return path
		}
		path = append(path, next)
		cur = next
	}
}
