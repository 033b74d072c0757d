// Package schedule defines the Multi-SIMD schedule representation shared
// by all schedulers (paper §4): a list of sequential timesteps, each
// holding per-region unsorted operation lists. Region 0 of the paper's
// representation — the move list — is produced separately by the
// communication pass (package comm), which annotates a Schedule.
package schedule

import (
	"fmt"
	"slices"
	"sync"

	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
)

// Step summarizes one logical timestep: how many ops it holds and how
// many regions execute at least one. The ops themselves live in the
// schedule's op slab; Schedule.Region and Schedule.StepOps read them.
type Step struct {
	ops, busy int32
}

// Busy returns how many regions execute at least one op.
func (s Step) Busy() int { return int(s.busy) }

// Ops returns the total number of ops in the step.
func (s Step) Ops() int { return int(s.ops) }

// Schedule is a complete fine-grained schedule of one materialized leaf
// module onto a Multi-SIMD(k,d) machine. Its ops sit in one slab sorted
// by (step, region), delimited by one offset per region per step; no
// per-step or per-region data holds a pointer.
type Schedule struct {
	M     *ir.Module
	K     int
	D     int // qubits per region per step; 0 means unbounded (d = ∞)
	Steps []Step

	ops []int32 // every op (index into M.Ops), sorted by (step, region)
	off []int32 // region r of step t is ops[off[t*K+r]:off[t*K+r+1]]
}

// Length returns the schedule length in logical timesteps.
func (s *Schedule) Length() int { return len(s.Steps) }

// Region returns the ops (indices into the module body) executing in
// SIMD region r at step t, in placement order. The slice is cap-clipped
// and must not be modified.
func (s *Schedule) Region(t, r int) []int32 {
	i := t*s.K + r
	lo, hi := s.off[i], s.off[i+1]
	return s.ops[lo:hi:hi]
}

// Bounds returns step t's k+1 region boundaries in the op slab: region
// r of step t is Ops()[b[r]:b[r+1]]. The slice must not be modified.
func (s *Schedule) Bounds(t int) []int32 {
	i := t * s.K
	return s.off[i : i+s.K+1 : i+s.K+1]
}

// StepOps returns every op of step t, region by region.
func (s *Schedule) StepOps(t int) []int32 {
	lo, hi := s.off[t*s.K], s.off[(t+1)*s.K]
	return s.ops[lo:hi:hi]
}

// Ops returns every scheduled op in (step, region) order. The slice
// must not be modified.
func (s *Schedule) Ops() []int32 { return s.ops[:len(s.ops):len(s.ops)] }

// Width returns the highest degree of operation-level parallelism: the
// maximum number of simultaneously busy regions in any step. This is the
// blackbox width used by the hierarchical scheduler (paper §4.3).
func (s *Schedule) Width() int {
	w := 0
	for _, st := range s.Steps {
		w = max(w, st.Busy())
	}
	return w
}

// TotalOps returns the number of scheduled operations.
func (s *Schedule) TotalOps() int { return len(s.ops) }

// FromLists builds a schedule from nested lists: steps[t][r] holds the
// ops of region r at step t, and a step may list fewer than k regions.
// It rejects a step listing more than k regions; Validate checks the
// rest.
func FromLists(m *ir.Module, k, d int, steps [][][]int32) (*Schedule, error) {
	if k < 1 {
		return nil, fmt.Errorf("schedule: k = %d, want >= 1", k)
	}
	b := NewBuilder(m, k, d)
	for t, regions := range steps {
		if len(regions) > k {
			return nil, fmt.Errorf("schedule: step %d uses %d regions, k = %d", t, len(regions), k)
		}
		for r, ops := range regions {
			for _, op := range ops {
				b.Add(op)
			}
			b.Close(r)
		}
		b.EndStep()
	}
	return b.Schedule(), nil
}

// Validate checks the schedule against the module's dependency graph and
// the Multi-SIMD execution model:
//
//   - every op appears exactly once,
//   - ops sharing a region-step carry the same group key (SIMD),
//   - region-step qubit usage respects d,
//   - every dependency is satisfied in a strictly earlier timestep.
//
// A schedule never holds more than K regions per step; FromLists
// rejects nested lists that would.
func (s *Schedule) Validate(g *dag.Graph) error {
	if g.M != s.M {
		return fmt.Errorf("schedule: graph is for module %s, schedule for %s", g.M.Name, s.M.Name)
	}
	n := g.Len()
	at := make([]int32, n)
	for i := range at {
		at[i] = -1
	}
	for t := range s.Steps {
		for r := 0; r < s.K; r++ {
			ops := s.Region(t, r)
			if len(ops) == 0 {
				continue
			}
			var key dag.GroupKey
			qubits := 0
			for i, op := range ops {
				if op < 0 || int(op) >= n {
					return fmt.Errorf("schedule: step %d region %d references op %d of %d", t, r, op, n)
				}
				if at[op] >= 0 {
					return fmt.Errorf("schedule: op %d scheduled twice (steps %d and %d)", op, at[op], t)
				}
				at[op] = int32(t)
				if k := dag.KeyOf(s.M, op); i == 0 {
					key = k
				} else if k != key {
					return fmt.Errorf("schedule: step %d region %d mixes %v and %v", t, r, key, k)
				}
				qubits += len(s.M.Ops[op].Args)
			}
			if s.D > 0 && qubits > s.D {
				return fmt.Errorf("schedule: step %d region %d operates on %d qubits, d = %d", t, r, qubits, s.D)
			}
		}
	}
	for i := 0; i < n; i++ {
		if at[i] < 0 {
			return fmt.Errorf("schedule: op %d never scheduled", i)
		}
		for _, p := range g.Preds(i) {
			if at[p] >= at[i] {
				return fmt.Errorf("schedule: op %d at step %d before dependency %d at step %d",
					i, at[i], p, at[p])
			}
		}
	}
	return nil
}

// StepOf returns, for each op, the timestep it is scheduled in. It
// assumes a valid schedule.
func (s *Schedule) StepOf() []int32 {
	at := make([]int32, len(s.M.Ops))
	for i := range at {
		at[i] = -1
	}
	for t := range s.Steps {
		for _, op := range s.StepOps(t) {
			at[op] = int32(t)
		}
	}
	return at
}

// Sequential builds the trivial 1-op-per-step schedule used as the
// paper's sequential baseline: op i alone in region 0 of step i.
func Sequential(m *ir.Module, k int) *Schedule {
	b := NewBuilder(m, k, 0)
	for i := range m.Ops {
		b.Add(int32(i))
		b.Close(0)
		b.EndStep()
	}
	return b.Schedule()
}

// Builder assembles a schedule one step at a time. Every op is placed
// exactly once, so ops go straight into the schedule's len(M.Ops)-sized
// slab. Ops are added to the open region and closed into region r, in
// any region order; EndStep puts the open step's regions in region
// order, keeping each region's op order. The per-step summaries and
// offsets gather in pooled pointer-free scratch until Schedule copies
// them out. The schedule is allocated with its Builder; its three slabs
// are taken from the slabs of a released schedule (Release) when the
// pool holds ones large enough, and allocated exactly sized otherwise.
type Builder struct {
	s    Schedule
	sc   *scratch
	step int // slab offset where the open step begins
	reg  int // slab offset where the open region begins
}

// scratch is a Builder's reusable pointer-free state, plus the slabs of
// a released schedule waiting for the next Builder.
type scratch struct {
	steps  []Step
	off    []int32 // one offset per region per step, after a leading 0
	lo, hi []int32 // open step: region r's slab window, lo == hi until closed
	tmp    []int32 // a copy of the open step's ops, for reordering

	spareOps   []int32
	spareSteps []Step
	spareOff   []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// NewBuilder starts a schedule of m on a Multi-SIMD(k,d) machine.
func NewBuilder(m *ir.Module, k, d int) *Builder {
	sc := scratchPool.Get().(*scratch)
	sc.steps = sc.steps[:0]
	sc.off = append(sc.off[:0], 0)
	sc.lo = slices.Grow(sc.lo[:0], k)[:k]
	sc.hi = slices.Grow(sc.hi[:0], k)[:k]
	clear(sc.lo)
	clear(sc.hi)
	return &Builder{
		s:  Schedule{M: m, K: k, D: d, ops: take(&sc.spareOps, len(m.Ops))},
		sc: sc,
	}
}

// Grow reserves scratch for steps more timesteps, so that a caller who
// knows a lower bound on the length (the critical path) does not regrow
// it step by step when the pool hands out a fresh scratch.
func (b *Builder) Grow(steps int) {
	b.sc.steps = slices.Grow(b.sc.steps, steps)
	b.sc.off = slices.Grow(b.sc.off, steps*b.s.K)
}

// Len returns the open step's index.
func (b *Builder) Len() int { return len(b.sc.steps) }

// Add appends op to the open region.
func (b *Builder) Add(op int32) { b.s.ops = append(b.s.ops, op) }

// Close makes the ops added since the previous Close region r of the
// open step, at most once per step, and returns them. The returned
// slice is valid until EndStep.
func (b *Builder) Close(r int) []int32 {
	ops := b.s.ops
	lo, hi := b.reg, len(ops)
	b.reg = hi
	if lo < hi {
		b.sc.lo[r], b.sc.hi[r] = int32(lo), int32(hi)
	}
	return ops[lo:hi:hi]
}

// Placed returns the ops placed in the open step so far, in the order
// they were added. The slice is valid until EndStep.
func (b *Builder) Placed() []int32 { return b.s.ops[b.step:] }

// EndStep finishes the open step and opens the next. Every op added in
// the step must have been closed into a region.
func (b *Builder) EndStep() {
	ops, sc := b.s.ops, b.sc
	if b.reg != len(ops) {
		panic("schedule: EndStep with ops not closed into a region")
	}
	open := ops[b.step:]
	sc.tmp = append(sc.tmp[:0], open...)
	base, at := int32(b.step), int32(b.step)
	busy := int32(0)
	n := len(sc.off)
	sc.off = slices.Grow(sc.off, len(sc.lo))[:n+len(sc.lo)]
	off := sc.off[n:]
	for r, lo := range sc.lo {
		if hi := sc.hi[r]; lo < hi {
			busy++
			copy(ops[at:], sc.tmp[lo-base:hi-base])
			at += hi - lo
		}
		off[r] = at
	}
	clear(sc.lo)
	clear(sc.hi)
	sc.steps = append(sc.steps, Step{ops: int32(len(open)), busy: busy})
	b.step = len(ops)
}

// Schedule returns the finished schedule; the open step must be empty.
// The Builder must not be used afterwards.
func (b *Builder) Schedule() *Schedule {
	if b.step != len(b.s.ops) {
		panic("schedule: Schedule with an unfinished step")
	}
	s, sc := &b.s, b.sc
	s.Steps = append(take(&sc.spareSteps, len(sc.steps)), sc.steps...)
	s.off = append(take(&sc.spareOff, len(sc.off)), sc.off...)
	b.sc = nil
	scratchPool.Put(sc)
	return s
}

// take returns the spare slab *spare, emptied and taken out of the
// scratch, when it can hold n elements, or else a fresh slab of
// capacity n.
func take[E any](spare *[]E, n int) []E {
	s := *spare
	if cap(s) < n {
		return make([]E, 0, n)
	}
	*spare = nil
	return s[:0]
}

// Release hands s's slabs back to the Builder pool, for the next
// schedule to fill. It is for a caller that has read everything it
// needs from s: s must not be used afterwards, and nothing may keep a
// slice read from it (Region, StepOps, Ops, Bounds).
func (s *Schedule) Release() {
	sc := scratchPool.Get().(*scratch)
	sc.spareOps, sc.spareSteps, sc.spareOff = s.ops[:0], s.Steps[:0], s.off[:0]
	scratchPool.Put(sc)
	*s = Schedule{}
}
