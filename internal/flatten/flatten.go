// Package flatten implements the paper's leaf-module flattening pass
// (§3.1.1): every module whose fully expanded gate count is at most the
// Flattening Threshold (FTh) becomes a leaf of at most FTh operations.
// The pass marks it rather than copying its callees' bodies into it; the
// body is expanded where it is consumed. Larger modules keep their call
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
	Threshold   int64
	Flattened   int // modules under FTh that had calls
	AlreadyLeaf int
	KeptModular int // modules above FTh
	// InlinedCallOps counts the gate ops of the flattened modules'
	// expanded bodies: what inlining their calls would copy.
	InlinedCallOps int
}

// Program flattens the program in place: it marks every reachable
// module whose expanded gate count is at most FTh as a leaf
// (ir.Program.MarkLeaf). Nothing is copied: a leaf's calls stay in
// place and expand only where a body is consumed (Materialize,
// Fingerprint, QASM emission), so a leaf of FTh gates costs its
// structure, not its expansion, until then.
//
// Processing bottom-up guarantees that when a module under FTh is
// marked, every callee is already a leaf (a callee's gate count never
// exceeds its caller's), so one pass suffices. A leaf's expanded op
// count is at most its gate count, hence at most FTh.
func Program(p *ir.Program, opts Options) (*Stats, error) {
	fth := opts.threshold()
	est, err := resource.New(p)
	if err != nil {
		return nil, err
	}
	stats := &Stats{Threshold: fth}
	gateOps := map[string]int{} // per leaf, for InlinedCallOps
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
		natural := m.IsLeaf()
		n := 0
		for i := range m.Ops {
			op := &m.Ops[i]
			if op.Kind == ir.GateOp {
				n++
			} else {
				n += int(op.EffCount()) * gateOps[op.Callee]
			}
		}
		gateOps[name] = n
		if err := p.MarkLeaf(m); err != nil {
			return nil, fmt.Errorf("flatten: %w", err)
		}
		if natural {
			stats.AlreadyLeaf++
			continue
		}
		stats.Flattened++
		stats.InlinedCallOps += n
	}
	return stats, nil
}
