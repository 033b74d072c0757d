// Package flatten implements the paper's leaf-module flattening pass
// (§3.1.1): every module whose fully expanded gate count is at most the
// Flattening Threshold (FTh) has all of its calls inlined, turning it
// into a leaf of at most FTh operations. Larger modules keep their call
// structure and are stitched by the coarse-grained scheduler.
package flatten

import (
	"fmt"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/resource"
)

// DefaultThreshold is the paper's FTh of 2 million operations (3 million
// for SHA-1, which callers set explicitly).
const DefaultThreshold = 2_000_000

// Options configures flattening.
type Options struct {
	// Threshold is FTh in gates; 0 defaults to DefaultThreshold.
	Threshold int64
}

func (o Options) threshold() int64 {
	if o.Threshold == 0 {
		return DefaultThreshold
	}
	return o.Threshold
}

// Stats reports what flattening did.
type Stats struct {
	Threshold      int64
	Flattened      int // modules whose calls were all inlined
	AlreadyLeaf    int
	KeptModular    int // modules above FTh
	InlinedCallOps int
}

// Program flattens the program in place.
//
// Processing bottom-up guarantees that when a module under FTh inlines
// its calls, every callee is already a leaf (a callee's gate count never
// exceeds its caller's), so one pass suffices.
func Program(p *ir.Program, opts Options) (*Stats, error) {
	fth := opts.threshold()
	est, err := resource.New(p)
	if err != nil {
		return nil, err
	}
	stats := &Stats{Threshold: fth}
	for _, name := range est.Reachable() {
		m := p.Modules[name]
		gates, err := est.Gates(name)
		if err != nil {
			return nil, err
		}
		if gates > fth {
			stats.KeptModular++
			continue
		}
		if m.IsLeaf() {
			stats.AlreadyLeaf++
			continue
		}
		if err := inlineAll(p, m, fth); err != nil {
			return nil, err
		}
		stats.Flattened++
		stats.InlinedCallOps += countGates(m)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("flatten: produced invalid program: %w", err)
	}
	return stats, nil
}

// inlineAll expands every call op in a single pass. Callees are already
// leaves (bottom-up processing), so one pass makes the module a leaf, and
// the expanded length is known before anything is copied: each non-call
// op stays one op and each call becomes EffCount copies of its callee's
// body. The body is allocated once at exactly that length.
func inlineAll(p *ir.Program, m *ir.Module, fth int64) error {
	var size int64
	hasCall := false
	for i := range m.Ops {
		op := &m.Ops[i]
		if op.Kind != ir.CallOp {
			size++
			continue
		}
		hasCall = true
		callee := p.Modules[op.Callee]
		if callee == nil {
			return fmt.Errorf("flatten: module %s calls missing %q", m.Name, op.Callee)
		}
		if !callee.IsLeaf() {
			return fmt.Errorf("flatten: internal error: callee %s of %s not yet a leaf", callee.Name, m.Name)
		}
		size += op.EffCount() * int64(len(callee.Ops))
		if size > 4*fth {
			// Inlining materializes call repetitions; a module under FTh
			// expanded gates can still blow up structurally if counts
			// hide in gate ops. Guard against runaway growth.
			return fmt.Errorf("flatten: module %s grew past %d ops while inlining", m.Name, 4*fth)
		}
	}
	if !hasCall {
		return nil
	}
	out := make([]ir.Op, 0, size)
	var err error
	for i := range m.Ops {
		op := &m.Ops[i]
		if op.Kind != ir.CallOp {
			out = append(out, *op)
			continue
		}
		if out, err = p.ExpandCall(out, m, op, i); err != nil {
			return err
		}
	}
	m.Ops = out
	return nil
}

func countGates(m *ir.Module) int {
	n := 0
	for i := range m.Ops {
		if m.Ops[i].Kind == ir.GateOp {
			n++
		}
	}
	return n
}
