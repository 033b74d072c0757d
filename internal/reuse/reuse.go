// Package reuse implements ancilla recycling on materialized leaf
// modules: local qubits with disjoint live ranges share physical slots.
//
// Flattening (ir.Program.MarkLeaf) gives every call of a leaf fresh
// locals for simplicity, which inflates a leaf's footprint well past the
// paper's Table 1 metric Q — defined with "maximal possible reuse of
// ancilla qubits across functions". This pass restores that reuse on
// the materialized body: an interval-graph coloring over ancilla live
// ranges, exactly the classical register-allocation view of the paper's
// sequential-reuse model.
//
// Soundness rests on the clean-ancilla convention: every local starts
// in |0> and is returned to |0> by its last use (the discipline all
// internal/ctqg circuits follow and their tests verify). A slot is only
// reused after its previous occupant's final operation.
package reuse

import (
	"container/heap"
	"fmt"
	"sort"

	"github.com/scaffold-go/multisimd/internal/ir"
)

// Stats reports what the pass did.
type Stats struct {
	// LocalsBefore and LocalsAfter count local slots.
	LocalsBefore int
	LocalsAfter  int
	// Dropped counts locals that were never used at all.
	Dropped int
}

// Leaf rewrites a materialized leaf module in place, remapping local
// slots so ancillae with disjoint live ranges share storage. Parameter
// slots are never touched. Returns statistics or an error if the module
// is not a materialized leaf.
func Leaf(m *ir.Module) (Stats, error) {
	params := m.ParamSlots()
	total := m.TotalSlots()
	st := Stats{LocalsBefore: total - params}
	if st.LocalsBefore == 0 {
		return st, nil
	}

	// Live ranges of local slots.
	first := make([]int, total)
	last := make([]int, total)
	for s := range first {
		first[s] = -1
	}
	for i := range m.Ops {
		op := &m.Ops[i]
		if op.Kind != ir.GateOp {
			return st, fmt.Errorf("reuse: module %s op %d is a call; materialize first", m.Name, i)
		}
		if op.EffCount() != 1 {
			return st, fmt.Errorf("reuse: module %s op %d has count %d; materialize first", m.Name, i, op.Count)
		}
		for _, s := range op.Args {
			if first[s] < 0 {
				first[s] = i
			}
			last[s] = i
		}
	}

	// Interval coloring, processing locals by first use; a min-heap of
	// (releaseOp, physSlot) recycles freed storage.
	type interval struct {
		slot        int
		first, last int
	}
	var ivs []interval
	for s := params; s < total; s++ {
		if first[s] < 0 {
			st.Dropped++
			continue
		}
		ivs = append(ivs, interval{slot: s, first: first[s], last: last[s]})
	}
	// Inlined locals are not necessarily in first-use order; sort.
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].first < ivs[b].first })

	remap := make([]int, total)
	for s := 0; s < params; s++ {
		remap[s] = s
	}
	for s := params; s < total; s++ {
		remap[s] = -1
	}
	free := &releaseHeap{}
	next := params
	for _, iv := range ivs {
		if free.Len() > 0 && (*free)[0].release < iv.first {
			slot := heap.Pop(free).(release).slot
			remap[iv.slot] = slot
			heap.Push(free, release{release: iv.last, slot: slot})
			continue
		}
		remap[iv.slot] = next
		heap.Push(free, release{release: iv.last, slot: next})
		next++
	}
	st.LocalsAfter = next - params

	// Rewrite ops and the locals table.
	for i := range m.Ops {
		args := m.Ops[i].Args
		for j, s := range args {
			if remap[s] < 0 {
				return st, fmt.Errorf("reuse: slot %d used but unmapped", s)
			}
			args[j] = remap[s]
		}
	}
	var locals []ir.Reg
	if st.LocalsAfter > 0 {
		locals = []ir.Reg{{Name: "anc", Size: st.LocalsAfter}}
	}
	m.SetLocals(locals)
	return st, nil
}

type release struct {
	release int
	slot    int
}

type releaseHeap []release

func (h releaseHeap) Len() int            { return len(h) }
func (h releaseHeap) Less(i, j int) bool  { return h[i].release < h[j].release }
func (h releaseHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x interface{}) { *h = append(*h, x.(release)) }
func (h *releaseHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
