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
	"github.com/scaffold-go/multisimd/internal/qasm"
)

// Step is one logical timestep: Regions[r] lists the ops (indices into
// the module body) executing in SIMD region r.
type Step struct {
	Regions [][]int32
}

// Busy returns how many regions execute at least one op.
func (s *Step) Busy() int {
	n := 0
	for _, ops := range s.Regions {
		if len(ops) > 0 {
			n++
		}
	}
	return n
}

// Ops returns the total number of ops in the step.
func (s *Step) Ops() int {
	n := 0
	for _, ops := range s.Regions {
		n += len(ops)
	}
	return n
}

// Schedule is a complete fine-grained schedule of one materialized leaf
// module onto a Multi-SIMD(k,d) machine.
type Schedule struct {
	M     *ir.Module
	K     int
	D     int // qubits per region per step; 0 means unbounded (d = ∞)
	Steps []Step
}

// Length returns the schedule length in logical timesteps.
func (s *Schedule) Length() int { return len(s.Steps) }

// Width returns the highest degree of operation-level parallelism: the
// maximum number of simultaneously busy regions in any step. This is the
// blackbox width used by the hierarchical scheduler (paper §4.3).
func (s *Schedule) Width() int {
	w := 0
	for i := range s.Steps {
		if b := s.Steps[i].Busy(); b > w {
			w = b
		}
	}
	return w
}

// TotalOps returns the number of scheduled operations.
func (s *Schedule) TotalOps() int {
	n := 0
	for i := range s.Steps {
		n += s.Steps[i].Ops()
	}
	return n
}

// GroupKey identifies a SIMD-compatible operation class: a region applies
// one gate type per step, and rotations with distinct angles are distinct
// operations (paper Table 2).
type GroupKey struct {
	Op    qasm.Opcode
	Angle float64
}

// KeyOf returns the group key of op i of module m.
func KeyOf(m *ir.Module, i int32) GroupKey {
	op := &m.Ops[i]
	k := GroupKey{Op: op.Gate}
	if op.Gate.IsRotation() {
		k.Angle = op.Angle
	}
	return k
}

// Validate checks the schedule against the module's dependency graph and
// the Multi-SIMD execution model:
//
//   - every op appears exactly once,
//   - ops sharing a region-step carry the same group key (SIMD),
//   - region-step qubit usage respects d,
//   - every dependency is satisfied in a strictly earlier timestep.
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
		step := &s.Steps[t]
		if len(step.Regions) > s.K {
			return fmt.Errorf("schedule: step %d uses %d regions, k = %d", t, len(step.Regions), s.K)
		}
		for r, ops := range step.Regions {
			if len(ops) == 0 {
				continue
			}
			key := KeyOf(s.M, ops[0])
			qubits := 0
			for _, op := range ops {
				if op < 0 || int(op) >= n {
					return fmt.Errorf("schedule: step %d region %d references op %d of %d", t, r, op, n)
				}
				if at[op] >= 0 {
					return fmt.Errorf("schedule: op %d scheduled twice (steps %d and %d)", op, at[op], t)
				}
				at[op] = int32(t)
				if k := KeyOf(s.M, op); k != key {
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
		for _, p := range g.Preds[i] {
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
		for _, ops := range s.Steps[t].Regions {
			for _, op := range ops {
				at[op] = int32(t)
			}
		}
	}
	return at
}

// RegionOf returns, for each op, the region it is scheduled in.
func (s *Schedule) RegionOf() []int32 {
	at := make([]int32, len(s.M.Ops))
	for i := range at {
		at[i] = -1
	}
	for t := range s.Steps {
		for r, ops := range s.Steps[t].Regions {
			for _, op := range ops {
				at[op] = int32(r)
			}
		}
	}
	return at
}

// Sequential builds the trivial 1-op-per-step schedule used as the
// paper's sequential baseline.
func Sequential(m *ir.Module, k int) *Schedule {
	s := &Schedule{M: m, K: k}
	s.Steps = make([]Step, len(m.Ops))
	for i := range m.Ops {
		regions := make([][]int32, 1)
		regions[0] = []int32{int32(i)}
		s.Steps[i] = Step{Regions: regions}
	}
	return s
}

// Builder assembles a schedule one step at a time. Every op is placed
// exactly once, so all region lists are windows of one len(M.Ops)-sized
// []int32; headers gather in pooled scratch until Schedule copies them
// into one exactly sized [][]int32. Windows are cap-clipped, so an append
// never reaches a neighbour. A region that receives no ops stays nil.
type Builder struct {
	s         *Schedule
	ops       []int32    // op slab; ops[step:] are the open step's
	hdrs      *[][]int32 // pooled scratch: K headers per step, the open step's last
	step, reg int        // slab offsets where the open step and region begin
}

var hdrPool = sync.Pool{New: func() any { return new([][]int32) }}

// NewBuilder starts a schedule of m on a Multi-SIMD(k,d) machine.
func NewBuilder(m *ir.Module, k, d int) *Builder {
	b := &Builder{s: &Schedule{M: m, K: k, D: d}, ops: make([]int32, 0, len(m.Ops)), hdrs: hdrPool.Get().(*[][]int32)}
	*b.hdrs = (*b.hdrs)[:0]
	b.EndStep()
	return b
}

// Len returns the open step's index.
func (b *Builder) Len() int { return len(*b.hdrs)/b.s.K - 1 }

// Add appends op to the open region.
func (b *Builder) Add(op int32) { b.ops = append(b.ops, op) }

// Close makes the ops added since the previous Close region r of the
// open step, at most once per step, and returns them.
func (b *Builder) Close(r int) []int32 {
	ops := b.ops[b.reg:len(b.ops):len(b.ops)]
	if b.reg = len(b.ops); len(ops) > 0 {
		(*b.hdrs)[len(*b.hdrs)-b.s.K+r] = ops
	}
	return ops
}

// Placed returns the ops placed in the open step so far.
func (b *Builder) Placed() []int32 { return b.ops[b.step:] }

// EndStep finishes the open step and opens the next.
func (b *Builder) EndStep() {
	n := len(*b.hdrs)
	*b.hdrs = slices.Grow(*b.hdrs, b.s.K)[:n+b.s.K]
	clear((*b.hdrs)[n:])
	b.step = len(b.ops)
}

// Schedule returns the finished steps; the open step must be empty.
func (b *Builder) Schedule() *Schedule {
	k, n := b.s.K, b.Len()
	hdrs := make([][]int32, n*k)
	copy(hdrs, *b.hdrs)
	clear(*b.hdrs)
	hdrPool.Put(b.hdrs)
	b.s.Steps = make([]Step, n)
	for t := range b.s.Steps {
		b.s.Steps[t].Regions = hdrs[t*k : (t+1)*k : (t+1)*k]
	}
	return b.s
}
